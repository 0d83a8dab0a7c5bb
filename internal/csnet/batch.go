package csnet

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// Batch is how a burst of versioned requests — a coordinator's writes,
// reads, merges and purges — travels to one server: Add
// encodes each request straight into the frame being built, a frame
// goes out when the next entry would take it, or the reply it draws,
// past muxBufSize (so both ends' free lists recycle the buffers of both
// and no frame nears MaxFrameSize) or on Send, and NextV hands back the
// replies in the order the entries were added. A write draws an ack
// (batchReplyGuess); a read is taken to draw as much as the longest
// read reply this Client has decoded, so a burst of reads is cut by
// what it draws, not by its few request bytes. A frame of several
// entries is one OpBatch envelope; a
// frame of one is that request's own plain frame, byte for byte what
// Client.Send would have written — the choice is the size of the group
// and nothing else. Either way a frame takes one Pending and one reply
// body, however many entries it carries, and both are the transport's:
// NextV copies out of a reply the parts a caller can keep, a read's
// value and an error's text, and hands the Pending and body back once
// the frame's last entry is read, so a burst allocates neither. A
// key's entry rides Batch; a node-wide query (TreeV, RangeV, Stats,
// Traces, gossip) rides Call.
//
// The zero Batch is not usable; get one from Client.Batch. A Batch is
// for one goroutine and one burst: Add…, Send, then NextV once per Add.
// It must not be copied after the first Add.
type Batch struct {
	c     *Client
	buf   []byte // the frame being built: room for the envelope header, then its items
	n     int    // entries in buf
	reply int    // the reply bytes buf's entries are expected to draw

	// Frames sent, in order. The first lives inline: a burst that fits
	// one frame — every single-key write — allocates no list.
	first batchFrame
	more  []batchFrame
	sent  int

	// The reply cursor: frame at-1 is open and left of its entries are
	// still to be handed out — each the error err when that is set, else
	// the response all when whole is, else the next of items. items
	// alias body, the open frame's reply, which goes back to the
	// transport with its Pending p once they are read (release).
	at, left int
	err      error
	whole    bool
	all      Response
	items    BatchItems
	p        *Pending
	body     []byte
}

// batchFrame is one frame of a Batch on the wire, or (p nil) an entry
// that never got there and the reason.
type batchFrame struct {
	p   *Pending
	n   int
	err error
}

// Batch starts a burst to this client's server.
func (c *Client) Batch() Batch { return Batch{c: c} }

// Add appends req to the burst. Its reply — or the reason it could not
// be sent: an op that is not Versioned, an over-long key — is what the
// matching NextV returns. req.Value is the caller's again on return.
func (b *Batch) Add(req Request) {
	if !Versioned(req.Op) {
		b.refuse(fmt.Errorf("csnet: batch: %s is not a versioned op", req.Op))
		return
	}
	need := batchItemMin + requestSize(req)
	draws := batchReplyGuess
	if req.Op == OpGetV {
		draws = max(draws, batchItemMin+int(b.c.readReply.Load()))
	}
	if b.n > 0 && (len(b.buf)+need > muxBufSize || b.reply+draws > muxBufSize) {
		b.Send()
	}
	switch b.n {
	case 0:
		// Alone until a second entry shows up: an ordinary request buffer.
		b.buf = append(getBuf(batchRequestHeader + need)[:0], make([]byte, batchRequestHeader)...)
		b.reply = batchReplyHeader
	case 1:
		if cap(b.buf) < muxBufSize {
			// A group after all: move to a buffer a whole frame fits, so
			// a burst never regrows its way up.
			small := b.buf
			b.buf = append(getBuf(muxBufSize)[:0], small...)
			putBuf(small)
		}
	}
	mark := len(b.buf)
	buf, err := AppendRequest(append(b.buf, 0, 0, 0, 0), req)
	if err != nil {
		b.buf = b.buf[:mark]
		b.refuse(err)
		return
	}
	binary.BigEndian.PutUint32(buf[mark:], uint32(len(buf)-mark-batchItemMin))
	b.buf = buf
	b.n++
	b.reply += draws
}

// refuse books an entry that cannot be sent, after whatever is already
// in the open frame so replies keep the order of the Adds.
func (b *Batch) refuse(err error) {
	b.Send()
	putBuf(b.buf) // a frame opened for this entry alone
	b.buf = nil
	b.push(batchFrame{n: 1, err: err})
}

// Send puts the entries added so far on the wire without waiting for
// their replies.
func (b *Batch) Send() {
	if b.n == 0 {
		return
	}
	body := b.buf[batchRequestHeader+batchItemMin:] // the lone request, plain
	if b.n > 1 {
		body = b.buf
		body[0], body[1], body[2] = byte(OpBatch), 0, 0
		binary.BigEndian.PutUint32(body[3:], uint32(len(body)-(1+2+4)))
		binary.BigEndian.PutUint32(body[7:], uint32(b.n))
	}
	p := getPending()
	b.c.m.enqueue(p, body, b.buf)
	b.push(batchFrame{p: p, n: b.n})
	b.buf, b.n = nil, 0
}

func (b *Batch) push(f batchFrame) {
	if b.sent == 0 {
		b.first = f
	} else {
		b.more = append(b.more, f)
	}
	b.sent++
}

// NextV waits for and decodes the reply to the next entry, in Add
// order. Every entry of a frame the connection lost gets the transport
// error; every entry of a frame the server answered as a whole — shed,
// or refused by a peer that does not know OpBatch — gets that response;
// and when a reply carries fewer responses than the frame had entries,
// the missing tail gets an error saying so.
func (b *Batch) NextV() (Response, error) {
	for b.left == 0 {
		if b.at == b.sent {
			return Response{}, fmt.Errorf("csnet: batch has no more replies")
		}
		f := b.first
		if b.at > 0 {
			f = b.more[b.at-1]
		}
		b.at++
		b.open(f)
	}
	b.left--
	if b.err != nil {
		return Response{}, b.err
	}
	if b.whole {
		return b.all, nil
	}
	item, err := b.items.Next()
	if err != nil {
		// Short of responses, or unreadable from here on: the rest of the
		// frame's entries get the same answer.
		b.err = fmt.Errorf("csnet: batch reply with %d entries unanswered: %w", b.left+1, err)
		b.release()
		return Response{}, b.err
	}
	resp, err := DecodeResponseV(item)
	b.c.noteReply(len(item), resp)
	resp.Value = bytes.Clone(resp.Value)
	if b.left == 0 {
		b.release()
	}
	return resp, err
}

// open waits for frame f's reply and sets the cursor to hand it out.
func (b *Batch) open(f batchFrame) {
	b.left, b.err, b.whole = f.n, f.err, false
	if f.p == nil {
		return
	}
	b.p = f.p
	b.body, b.err = f.p.Wait()
	if b.err != nil {
		b.release()
		return
	}
	if f.n == 1 {
		b.all, b.err = DecodeResponseV(b.body)
		b.c.noteReply(len(b.body), b.all)
	} else if b.all, b.err = DecodeResponse(b.body); b.err == nil && b.all.Status == StatusOK {
		if b.items, b.err = DecodeBatch(b.all.Value); b.err == nil {
			return // the items are read, and the body released, by NextV
		}
	}
	// One answer for every entry of the frame: a copy, not the body.
	b.whole = true
	b.all.Value = bytes.Clone(b.all.Value)
	b.release()
}

// noteReply raises readReply to n, the encoded length of resp, when
// resp answers a read: a StatusOK reply with a value (a write's ack
// carries none).
func (c *Client) noteReply(n int, resp Response) {
	if resp.Status != StatusOK || len(resp.Value) == 0 {
		return
	}
	for {
		cur := c.readReply.Load()
		if int64(n) <= cur || c.readReply.CompareAndSwap(cur, int64(n)) {
			return
		}
	}
}

// release hands the open frame's Pending and reply body back to the
// transport; nothing the Batch returned aliases them.
func (b *Batch) release() {
	if b.p != nil {
		putBuf(b.body)
		putPending(b.p)
		b.p, b.body = nil, nil
	}
}
