package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pdcedu/internal/obs"
)

// This file is the write-ahead side of the engine's persistence seam:
// one append-only log of CRC-framed versioned records per engine,
// shared by every shard, with group-commit fsync batching. The log is
// the engine's only on-disk structure: snapshot.go rotates it into
// segments and cleans the oldest one at a time; recovery.go replays
// every segment on open.
//
// On-disk layout of a WAL directory (one engine):
//
//	WALMETA     manifest pinning layout version, shard count and
//	            Merkle buckets
//	wal.<G>     log segment, generation G; the highest is the open one
//
// Each segment starts with a 12-byte header — an 8-byte magic and, as a
// u32, the engine's resident entries when the segment was created,
// which a reopen sizes its tables from — then one frame per record:
//
//	u32 CRC-32C of the rest | u64 version | record
//	record = flags(1) | klen(2, or 4 past 64 KiB) | vlen(4) | key | value
//
// The record is the table's own (table.go), byte for byte, plus one
// flag only the log sets: flagPurge, a record that removes its key. The
// frame has no length of its own; the record header holds both, and
// the CRC covers them. A 9-byte key and a 128-byte value are a
// 156-byte frame. Everything is little-endian. A record is torn when
// the file ends mid-frame and corrupt when the CRC or header does not
// check out; recovery truncates at the first such record, so replay
// recovers exactly the prefix that reached disk intact.

// FsyncPolicy says when appended records are forced to stable storage.
type FsyncPolicy int

const (
	// FsyncInterval (the default) fsyncs a dirty log on a background
	// cadence (WALOptions.Interval): a crash can lose at most the last
	// interval's writes, and the write hot path never waits on a disk
	// flush — appends land in the engine's in-memory log buffer and
	// reach the file at the next flush point (an fsync, the buffer
	// threshold, a rotation, or Close).
	FsyncInterval FsyncPolicy = iota
	// FsyncAlways group-commits: a write does not return until its
	// record is fsynced. Concurrent writers, whatever their shards,
	// share one fsync (one leader syncs, everyone sealed under it is
	// acked together).
	FsyncAlways
	// FsyncNever appends without ever forcing a flush; durability is
	// whatever the OS page cache provides.
	FsyncNever
)

// ParseFsyncPolicy parses the flag spelling: always, interval, never.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "always":
		return FsyncAlways, nil
	case "interval", "":
		return FsyncInterval, nil
	case "never":
		return FsyncNever, nil
	}
	return 0, fmt.Errorf("unknown fsync policy %q (want always, interval, or never)", s)
}

func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncNever:
		return "never"
	default:
		return "interval"
	}
}

// WALFile is the slice of *os.File the log's write path needs — the
// injection seam the crash and fault tests use to deliver short
// writes, failed fsyncs, and torn tails. OpenFile implementations
// must open for appending, creating the file when absent.
type WALFile interface {
	io.Writer
	Sync() error
	Close() error
}

// WALOptions configures persistence for OpenSharded.
type WALOptions struct {
	// Dir is the engine's data directory (required; created if absent).
	Dir string
	// Fsync is the durability policy (default FsyncInterval).
	Fsync FsyncPolicy
	// Interval is the background fsync cadence under FsyncInterval
	// (default 100ms).
	Interval time.Duration
	// SnapshotBytes, per shard, is the floor under the cleaning
	// trigger: the oldest segment is cleaned while the log holds at
	// least max(SnapshotBytes × Shards(), twice the live image), and
	// the open segment rotates every quarter of that floor (default
	// 8 MiB per shard). See snapshot.go.
	SnapshotBytes int64
	// OpenFile opens a log segment for appending, creating it when
	// absent (default os.OpenFile with O_CREATE|O_WRONLY|O_APPEND).
	// Tests inject failing implementations here.
	OpenFile func(path string) (WALFile, error)
}

const (
	defaultFsyncInterval = 100 * time.Millisecond
	defaultSnapshotBytes = 8 << 20
)

func (o WALOptions) withDefaults() WALOptions {
	if o.Interval <= 0 {
		o.Interval = defaultFsyncInterval
	}
	if o.SnapshotBytes <= 0 {
		o.SnapshotBytes = defaultSnapshotBytes
	}
	if o.OpenFile == nil {
		o.OpenFile = func(path string) (WALFile, error) {
			return os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		}
	}
	return o
}

// WALError is the typed, sticky failure a persistent engine surfaces
// through (*Sharded).Err once its log can no longer be trusted: the
// first write, fsync, or rotation error poisons the engine — appends
// stop, FsyncAlways writers stop acking — and only a reopen (which
// replays the intact prefix) clears it.
type WALError struct {
	Op   string // "write", "sync", "rotate", "clean", "closed"
	Path string
	Err  error
}

func (e *WALError) Error() string {
	return fmt.Sprintf("wal %s %s: %v", e.Op, e.Path, e.Err)
}

func (e *WALError) Unwrap() error { return e.Err }

var errWALClosed = errors.New("log is closed")

// Record framing.

const (
	walMagic  = "PDCWAL3\n"
	magicLen  = 8
	segHead   = magicLen + 4           // magic + u32 entry count
	frameHead = 4 + 8                  // u32 crc + u64 version
	minFrame  = frameHead + baseHeader // an empty key and value

	// segShare is how many segments make a floor: small enough a share
	// that the oldest segment is all of an age, so cleaning it copies
	// little, large enough that a reopen opens few files.
	segShare = 4

	// walFlushBytes bounds the in-memory log buffer: the writer that
	// grows it past this writes it out, so one write syscall carries
	// many records instead of each record paying its own.
	walFlushBytes = 64 << 10
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// appendFrame appends the frame of the record for key and e — a purge
// record when purge is set — to buf and returns the extended slice.
func appendFrame(buf []byte, key string, e Entry, purge bool) []byte {
	var flags byte
	if purge {
		flags = flagPurge
	}
	start := len(buf)
	buf = appendRec(append(buf, make([]byte, frameHead)...), key, e, flags)
	seal(buf[start:], e.Version)
	return buf
}

// seal writes a frame's version and then its CRC, which covers the
// version and the record.
func seal(frame []byte, ver uint64) {
	binary.LittleEndian.PutUint64(frame[4:], ver)
	binary.LittleEndian.PutUint32(frame, crc32.Checksum(frame[4:], crcTable))
}

var (
	errTornRecord    = errors.New("wal: torn record")
	errCorruptRecord = errors.New("wal: corrupt record")
)

// decodeFrame checks the frame at the head of b and returns its record
// and length. The record aliases b — nothing is copied — so a caller
// keeping it past b's reuse clones it, as replay does. errTornRecord
// means b ends mid-frame (a crash mid-append), and comes with how long
// b must be to tell more. errCorruptRecord means a bad CRC or a record
// header no encoder writes: an unknown flag, a tombstone or purge
// carrying a value, or a wide klen for a short key.
func decodeFrame(b []byte) (rec, int, error) {
	if len(b) < minFrame {
		return rec{}, minFrame, errTornRecord
	}
	flags := b[frameHead]
	hdr, _ := header(flags)
	if flags&^flagsKnown != 0 {
		return rec{}, 0, errCorruptRecord
	} else if len(b) < frameHead+hdr {
		return rec{}, frameHead + hdr, errTornRecord
	}
	r := rec{p: &b[frameHead], ver: binary.LittleEndian.Uint64(b[4:])}
	_, _, klen, vlen := r.layout()
	n := frameHead + hdr + klen + vlen
	switch {
	case flags&(flagTombstone|flagPurge) != 0 && vlen > 0,
		flags&flagLongKey != 0 && klen <= math.MaxUint16:
		return rec{}, 0, errCorruptRecord
	case len(b) < n:
		return rec{}, n, errTornRecord
	case crc32.Checksum(b[4:n], crcTable) != binary.LittleEndian.Uint32(b):
		return rec{}, 0, errCorruptRecord
	}
	return r, n, nil
}

// recordReader streams records through one reusable frame buffer. left
// is what remains of the source: a length read from disk is checked
// against it before anything is allocated. The wal keeps one, with the
// buffered reader open reads a segment through, so neither a cleaning
// pass nor a replayed segment allocates either.
type recordReader struct {
	r    io.Reader
	left int64
	buf  []byte
	br   *bufio.Reader
	head [segHead]byte
}

// next decodes the next record, which aliases the frame buffer and is
// valid until the following call. io.EOF is the clean end of the
// source, a source that ends mid-frame is torn, and anything that is
// neither that nor errCorruptRecord is a read error. A frame is read in
// up to three steps, each as long as the last one showed it must be:
// the fixed head, the rest of the record header, the key and value.
func (rr *recordReader) next() (rec, error) {
	if rr.left == 0 {
		return rec{}, io.EOF
	}
	if cap(rr.buf) < minFrame {
		rr.buf = make([]byte, 4<<10)
	}
	for n := 0; ; {
		r, m, err := decodeFrame(rr.buf[:n])
		if err != errTornRecord {
			if err == nil {
				rr.left -= int64(m)
			}
			return r, err
		}
		if int64(m) > rr.left {
			return rec{}, errTornRecord
		}
		if cap(rr.buf) < m {
			rr.buf = append(make([]byte, 0, m), rr.buf[:n]...)
		}
		if err := rr.fill(rr.buf[n:m]); err != nil {
			return rec{}, err
		}
		n = m
	}
}

// fill reads len(p) bytes; a source shorter than left promised is torn.
func (rr *recordReader) fill(p []byte) error {
	_, err := io.ReadFull(rr.r, p)
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return errTornRecord
	}
	return err
}

// open starts a read of a segment of size bytes from r, through the
// buffered reader: it reads the header and returns the entry count it
// carries. A source that ends within the header, or whose magic is not
// the log's, is corrupt; any other failure is a read error.
func (rr *recordReader) open(r io.Reader, size int64) (uint32, error) {
	if rr.br == nil {
		rr.br = bufio.NewReaderSize(r, 64<<10)
	} else {
		rr.br.Reset(r)
	}
	rr.r, rr.left = rr.br, size-segHead
	if err := rr.fill(rr.head[:]); err != nil && err != errTornRecord {
		return 0, err
	} else if err != nil || string(rr.head[:magicLen]) != walMagic {
		return 0, errCorruptRecord
	}
	return binary.LittleEndian.Uint32(rr.head[magicLen:]), nil
}

// each streams the records of the segment open started through apply,
// whose record aliases the frame buffer and is valid only during the
// call. It returns the records delivered and, if it stopped early, the
// bytes left unread and why: torn, corrupt, or a read error.
func (rr *recordReader) each(apply func(rec)) (records int, left int64, err error) {
	for {
		r, err := rr.next()
		if err == io.EOF {
			return records, 0, nil
		}
		if err != nil {
			return records, rr.left, err
		}
		apply(r)
		records++
	}
}

// entriesFor is what a reopen reserves for a header's entry count over
// a log of size bytes: no more entries than those bytes of frames can
// hold, so a corrupt count sizes nothing past the files.
func entriesFor(count uint32, size int64) int {
	return int(min(int64(count), size/minFrame))
}

// wal is the persistence state of a Sharded opened with OpenSharded:
// one open segment shared by every shard, and the group-commit state
// that lets all of them ride one flush. Appends land in buf under mu,
// which is held for the copy only. File I/O belongs to whoever holds
// the flushing latch: the leader swaps buf for the spare under mu,
// then writes and fsyncs with mu released, so appends keep landing
// while the disk works and everything sealed under one swap is acked
// together.
type wal struct {
	o   WALOptions
	eng *Sharded
	// floor is SnapshotBytes × Shards(), the least log worth cleaning,
	// and segBytes its segShare-th part, the size the open segment
	// rotates at.
	floor, segBytes int64

	// failed is the sticky first error; once set the engine is
	// poisoned (see WALError).
	failed    atomic.Pointer[WALError]
	closed    atomic.Bool
	closeOnce sync.Once

	mu   sync.Mutex
	cond sync.Cond

	// buf holds encoded records not yet written to f. Every durability
	// point (group-commit ack, interval/manual sync, rotation, clean
	// close) writes it out first, so "fsynced" always means "buffered,
	// written, and synced" — a crash loses the buffer exactly like it
	// loses the OS page cache.
	buf, spare []byte

	f    WALFile
	path string
	gen  uint64
	// open is the bytes of the open segment, its file and buf, and
	// sealedBytes those of the sealed segments still on disk: their sum
	// is the log, what a reopen would replay. cleanAt is the log at
	// which the cleaner runs, max(floor, twice the live image) as of its
	// last census (snapshot.go).
	open, sealedBytes, cleanAt int64

	// seq numbers appended records; flushed is the highest seq handed to
	// the file, durable the highest known to be on stable storage. The
	// flushing latch's holder alone touches f and moves flushed and
	// durable; everyone else waits on cond.
	seq, flushed, durable uint64
	flushing              bool

	ckMu sync.Mutex // one cleaner run at a time (background loop vs Snapshot)
	// sealed lists the sealed segments, oldest first, and rr reads them
	// back, one buffered reader and frame buffer for every pass; head is
	// the header a new segment starts with, and dir the data directory,
	// held open for the fsyncs that make a segment's creation and
	// deletion durable. ckMu guards all four, so a pass allocates only
	// the files it opens.
	sealed []segment
	rr     recordReader
	head   [segHead]byte
	dir    *os.File
	snapC  chan struct{} // size-trigger token for the cleaner loop
	stop   chan struct{}
	bg     sync.WaitGroup

	rec RecoveryStats
}

// segment is a sealed log segment: its generation, its bytes and its
// path.
type segment struct {
	gen  uint64
	size int64
	path string
}

// poison records the engine's first fatal log error and wakes every
// group-commit waiter so no writer blocks on a durability watermark
// that will never advance. Callers hold mu.
func (w *wal) poison(op, path string, err error) {
	w.failed.CompareAndSwap(nil, &WALError{Op: op, Path: path, Err: err})
	walErrors.Inc()
	w.cond.Broadcast()
}

// append encodes one record into the shared log buffer, under the
// key's shard mutex (see logAndUnlock). Returns the record's seq (0
// when the log is poisoned or closed and nothing was appended).
func (w *wal) append(key string, e Entry, purge bool) uint64 {
	w.mu.Lock()
	if w.failed.Load() != nil {
		w.mu.Unlock()
		return 0
	}
	if w.closed.Load() {
		w.poison("write", w.path, errWALClosed)
		w.mu.Unlock()
		return 0
	}
	before := len(w.buf)
	w.buf = appendFrame(w.buf, key, e, purge)
	w.open += int64(len(w.buf) - before)
	w.seq++
	seq, due := w.seq, w.due()
	if len(w.buf) >= walFlushBytes && !w.flushing {
		w.flushLocked(false)
	}
	w.mu.Unlock()
	if due {
		w.wake()
	}
	return seq
}

// due reports whether the cleaner loop has work: a segment to rotate or
// a log to clean. Callers hold mu.
func (w *wal) due() bool {
	return w.open >= w.segBytes || w.sealedBytes+w.open >= w.cleanAt
}

// wake hands the cleaner loop its token, unless one is pending.
func (w *wal) wake() {
	select {
	case w.snapC <- struct{}{}:
	default:
	}
}

// flushLocked is the leader's turn: it writes the buffered records to
// the open segment and, when sync is set, fsyncs it. The caller holds
// mu with the latch free and the engine healthy; mu is released for
// the file I/O and held again on return. An error — a short write
// included, which leaves a torn frame recovery will truncate — poisons
// the engine; the buffer is consumed either way.
func (w *wal) flushLocked(sync bool) {
	w.flushing = true
	b, sealed, f := w.buf, w.seq, w.f
	w.buf = w.spare[:0]
	appends := sealed - w.flushed
	w.flushed = sealed
	w.mu.Unlock()

	op, err := "write", error(nil)
	if len(b) > 0 {
		walAppends.Add(appends)
		walAppendBytes.Add(uint64(len(b)))
		walFlushRecords.Observe(int64(appends))
		err = writeFull(f, b)
	}
	if err == nil && sync {
		op = "sync"
		start := obs.StartTimer()
		err = f.Sync()
		walFsyncLatency.ObserveSince(start)
		walFsyncs.Inc()
	}

	w.mu.Lock()
	w.spare = b[:0]
	w.flushing = false
	if err != nil {
		w.poison(op, w.path, err)
	} else if sync {
		w.durable = sealed
	}
	w.cond.Broadcast()
}

// ack runs after the shard mutex is released and, under FsyncAlways,
// blocks until record seq is durable: concurrent writers on any shards
// batch into one group commit, led by whichever arrives first.
func (w *wal) ack(seq uint64) {
	if w.o.Fsync == FsyncAlways {
		w.waitDurable(seq)
	}
}

// sync forces everything appended so far to stable storage (interval
// tick, manual Sync barrier, clean close): at most one fsync a call.
func (w *wal) sync() {
	w.mu.Lock()
	seq := w.seq
	w.mu.Unlock()
	w.waitDurable(seq)
}

// waitDurable returns once record seq is on stable storage (or the
// engine poisoned), leading a flush itself unless one in flight does it.
func (w *wal) waitDurable(seq uint64) {
	w.mu.Lock()
	for w.failed.Load() == nil && w.durable < seq {
		if w.flushing {
			w.cond.Wait()
			continue
		}
		w.flushLocked(true)
	}
	w.mu.Unlock()
}

// start launches the background loops: interval fsyncs (policy
// permitting) and the size-triggered cleaner — separate goroutines, so
// the fsync cadence, which bounds what a crash can lose, never stalls
// behind a cleaning pass. A reopened log may be due already.
func (w *wal) start() {
	if w.o.Fsync == FsyncInterval {
		loop(w, time.NewTicker(w.o.Interval).C, w.sync)
	}
	loop(w, w.snapC, func() { w.maintain(false) })
	w.mu.Lock()
	due := w.due()
	w.mu.Unlock()
	if due {
		w.wake()
	}
}

// loop runs fn for every value on c until the log is closed.
func loop[T any](w *wal, c <-chan T, fn func()) {
	w.bg.Add(1)
	go func() {
		defer w.bg.Done()
		for {
			select {
			case <-w.stop:
				return
			case <-c:
				fn()
			}
		}
	}()
}

// close stops the background loops and closes the segment; sync forces
// a final flush first (false simulates a crash: buffered state is
// abandoned, which the crash tests pair with test-side truncation).
func (w *wal) close(sync bool) error {
	first := false
	w.closeOnce.Do(func() {
		first = true
		// The loops stop first: a cleaning pass runs to its end, and its
		// copies must not find the log closed.
		close(w.stop)
		w.bg.Wait()
		w.closed.Store(true)
	})
	if !first {
		return w.errOrNil()
	}
	if sync {
		w.sync()
	}
	w.mu.Lock()
	for w.flushing {
		w.cond.Wait()
	}
	w.buf, w.spare = nil, nil // crash-style: never acked durable
	w.f.Close()
	w.dir.Close()
	w.mu.Unlock()
	return w.errOrNil()
}

func (w *wal) errOrNil() error {
	if e := w.failed.Load(); e != nil {
		return e
	}
	return nil
}

// Path helpers.

func segPath(dir string, gen uint64) string {
	return dir + string(filepath.Separator) + "wal." + strconv.FormatUint(gen, 10)
}

// createSegment opens a fresh segment for appending and writes its
// header: the magic and the engine's resident entries. The directory is
// fsynced so the new name survives a crash alongside any record
// fsynced into it. Callers hold ckMu, or are recovery.
func (w *wal) createSegment(gen uint64, entries int) (WALFile, string, error) {
	path := segPath(w.o.Dir, gen)
	f, err := w.o.OpenFile(path)
	if err != nil {
		return nil, path, err
	}
	copy(w.head[:], walMagic)
	binary.LittleEndian.PutUint32(w.head[magicLen:], uint32(min(entries, math.MaxUint32)))
	if err = writeFull(f, w.head[:]); err == nil {
		err = w.dir.Sync()
	}
	if err != nil {
		f.Close()
		return nil, path, err
	}
	return f, path, nil
}

// writeFull is Write with a short count turned into an error.
func writeFull(f io.Writer, b []byte) error {
	n, err := f.Write(b)
	if err == nil && n < len(b) {
		err = io.ErrShortWrite
	}
	return err
}

// syncDir fsyncs a directory so renames and creates inside it are
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Err reports the engine's sticky persistence failure: nil while the
// log is healthy (or the engine is memory-only), the first *WALError
// once a write, fsync, or rotation has failed. The csnet KV handler
// checks it after every write op so a lost write is never acked over
// the wire.
func (s *Sharded) Err() error {
	if s.wal == nil {
		return nil
	}
	return s.wal.errOrNil()
}

// Sync forces the log to stable storage — a manual durability barrier
// for any fsync policy — and returns the engine's sticky error state.
func (s *Sharded) Sync() error {
	if s.wal == nil {
		return nil
	}
	s.wal.sync()
	return s.wal.errOrNil()
}

// Close flushes and closes the engine's log and stops its background
// persistence loops. A memory-only engine returns nil. The engine must
// not be used after Close.
func (s *Sharded) Close() error {
	if s.wal == nil {
		return nil
	}
	return s.wal.close(true)
}
