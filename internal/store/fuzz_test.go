package store

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"
)

// The three decoders that take bytes from disk. Each target's contract
// is the same: any input is answered with a value or an error — never
// a panic — and nothing is sized from a length field the input has not
// yet paid for in bytes.

// codecSeeds frames the record shapes TestWALRecordCodec round-trips.
func codecSeeds() [][]byte {
	var frames [][]byte
	for _, c := range codecCases {
		frames = append(frames, appendFrame(nil, c.key, c.e, c.purge))
	}
	return frames
}

func FuzzDecodeRecord(f *testing.F) {
	long := strings.Repeat("K", math.MaxUint16+1) // a 4-byte klen
	seeds := append(codecSeeds(),
		appendFrame(nil, long, Entry{Value: []byte("v"), Version: 5}, false),
		appendFrame(nil, long, Entry{Version: 6, Tombstone: true}, false))
	for _, frame := range seeds {
		f.Add(frame)
		f.Add(frame[:len(frame)/2]) // torn
		flipped := append([]byte(nil), frame...)
		flipped[len(flipped)-1] ^= 0xff // corrupt
		f.Add(flipped)
		huge := append([]byte(nil), frame...)
		_, lw := header(huge[frameHead])
		binary.LittleEndian.PutUint32(huge[frameHead+1+lw:], 1<<30) // a vlen the input does not hold
		f.Add(huge)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		r, n, err := decodeFrame(b)
		if err == nil {
			if n < minFrame || n > len(b) {
				t.Fatalf("decoded %d bytes out of %d", n, len(b))
			}
			// The copy replay installs, in an allocation of its own:
			// under -race, checkptr fails any read of key() or entry()
			// that leaves it.
			own := r.clone()
			// The layout is canonical: what decodes re-encodes to the
			// same bytes.
			if re := appendFrame(nil, own.key(), own.entry(), own.purge()); !bytes.Equal(re, b[:n]) {
				t.Fatalf("frame %x re-encodes as %x", b[:n], re)
			}
		}
		// The streaming reader must agree with the in-memory decoder and
		// never buffer more than the source holds.
		rr := recordReader{r: bytes.NewReader(b), left: int64(len(b))}
		rr2, rerr := rr.next()
		if len(b) > 0 && rerr != err {
			t.Fatalf("recordReader says %v, decodeFrame %v", rerr, err)
		}
		if err == nil && (rr2.ver != r.ver || !bytes.Equal(rr2.bytes(), r.bytes())) {
			t.Fatalf("recordReader read %x@%d, decodeFrame %x@%d", rr2.bytes(), rr2.ver, r.bytes(), r.ver)
		}
		if err == nil && rr.left != int64(len(b)-n) {
			t.Fatalf("recordReader consumed %d bytes, decodeFrame %d", int64(len(b))-rr.left, n)
		}
		if limit := max(len(b), 4<<10); cap(rr.buf) > limit {
			t.Fatalf("reader buffered %d bytes for a %d-byte source", cap(rr.buf), len(b))
		}
	})
}

// segmentBytes frames records as a segment whose header claims count
// entries.
func segmentBytes(count uint32, records ...[]byte) []byte {
	b := binary.LittleEndian.AppendUint32([]byte(walMagic), count)
	for _, rec := range records {
		b = append(b, rec...)
	}
	return b
}

// FuzzLoadSnapshot reads a segment as recovery does — the entry count
// its header carries, which a reopen reserves tables for, then its
// records — as after a Snapshot, when the log is one segment holding
// the live image.
func FuzzLoadSnapshot(f *testing.F) {
	recs := codecSeeds()
	whole := segmentBytes(uint32(len(recs)), recs...)
	f.Add(whole)
	f.Add(whole[:len(whole)-3])                 // ends mid-record
	f.Add(segmentBytes(1<<31, recs[0]))         // count far beyond the content
	f.Add(segmentBytes(0, recs[0]))             // count below the content
	f.Add(segmentBytes(0))                      // empty engine
	f.Add([]byte(walMagic))                     // header cut short
	f.Add(append([]byte("PDCWAL2\n"), 0, 0, 0)) // an older layout's magic
	f.Fuzz(func(t *testing.T, b []byte) {
		var rr recordReader
		count, err := rr.open(bytes.NewReader(b), int64(len(b)))
		if reserved := entriesFor(count, int64(len(b))); reserved > len(b)/minFrame {
			t.Fatalf("reserved %d entries out of %d bytes", reserved, len(b))
		}
		delivered, n, left := 0, 0, int64(len(b))
		if err == nil {
			n, left, err = rr.each(func(rec) { delivered++ })
		}
		if n != delivered {
			t.Fatalf("reported %d records, delivered %d", n, delivered)
		}
		if delivered > len(b)/minFrame {
			t.Fatalf("%d records out of %d bytes", delivered, len(b))
		}
		if err == nil && left != 0 || left < 0 || left > int64(len(b)) {
			t.Fatalf("stopped with %d of %d bytes unread: %v", left, len(b), err)
		}
		if err == nil && len(b) < segHead {
			t.Fatalf("accepted a %d-byte segment", len(b))
		}
	})
}

func FuzzLoadManifest(f *testing.F) {
	f.Add([]byte("pdcedu-wal v5\nshards 128\nbuckets 1024\n"))
	f.Add([]byte("pdcedu-wal v4\nshards 128\nbuckets 1024\n"))
	f.Add([]byte("pdcedu-wal v3\nshards 128\nbuckets 1024\n"))
	f.Add([]byte("pdcedu-wal v2\nshards 128\nbuckets 1024\n"))
	f.Add([]byte("pdcedu-wal v1\nshards 2\nbuckets 32\n"))
	f.Add([]byte("pdcedu-wal v4\nshards 99999999999999999999\nbuckets 1\n"))
	f.Add([]byte("pdcedu-wal v4\nshards 1073741824\nbuckets 1073741824\n"))
	f.Add([]byte("pdcedu-wal v4\nshards -4\nbuckets 16\n"))
	f.Add([]byte("pdcedu-wal v4\nshards 8\n"))
	f.Add([]byte(""))
	f.Fuzz(func(t *testing.T, b []byte) {
		shards, buckets, err := parseManifest(b)
		if err != nil {
			return
		}
		if shards < 1 || shards > maxManifestShards || buckets < shards || buckets > maxManifestBuckets {
			t.Fatalf("accepted geometry %d shards / %d buckets", shards, buckets)
		}
	})
}
