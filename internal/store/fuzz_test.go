package store

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"
)

// The three decoders that take bytes from disk. Each target's contract
// is the same: any input is answered with a value or an error — never
// a panic — and nothing is sized from a length field the input has not
// yet paid for in bytes.

// codecSeeds encodes the record shapes TestWALRecordCodec round-trips.
func codecSeeds() [][]byte {
	var recs [][]byte
	for _, c := range codecCases {
		recs = append(recs, appendRecord(nil, c.key, c.e, c.purge))
	}
	return recs
}

func FuzzDecodeRecord(f *testing.F) {
	for _, rec := range codecSeeds() {
		f.Add(rec)
		f.Add(rec[:len(rec)/2]) // torn
		flipped := append([]byte(nil), rec...)
		flipped[len(flipped)-1] ^= 0xff // corrupt
		f.Add(flipped)
		long := append([]byte(nil), rec...)
		binary.LittleEndian.PutUint32(long, 1<<30) // a length the input does not hold
		f.Add(long)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		key, e, purge, n, err := decodeRecord(b)
		if err == nil {
			if n < recHeader+recFixed || n > len(b) {
				t.Fatalf("decoded %d bytes out of %d", n, len(b))
			}
			k2, e2, p2, n2, err2 := decodeRecord(appendRecord(nil, string(key), e, purge))
			if err2 != nil || !bytes.Equal(k2, key) || p2 != purge || !reflect.DeepEqual(e2, e) || n2 > n {
				t.Fatalf("re-encoded record decodes to (%q, %+v, %v, %d, %v), want (%q, %+v, %v)", k2, e2, p2, n2, err2, key, e, purge)
			}
		}
		// The streaming reader must agree with the in-memory decoder and
		// never buffer more than the source holds.
		rr := recordReader{r: bytes.NewReader(b), left: int64(len(b))}
		rk, re, rp, rerr := rr.next()
		if len(b) > 0 && (rerr != err || !bytes.Equal(rk, key) || rp != purge || !reflect.DeepEqual(re, e)) {
			t.Fatalf("recordReader (%q, %+v, %v, %v) disagrees with decodeRecord (%q, %+v, %v, %v)",
				rk, re, rp, rerr, key, e, purge, err)
		}
		if err == nil && rr.left != int64(len(b)-n) {
			t.Fatalf("recordReader consumed %d bytes, decodeRecord %d", int64(len(b))-rr.left, n)
		}
		if limit := max(len(b), 4<<10); cap(rr.buf) > limit {
			t.Fatalf("reader buffered %d bytes for a %d-byte source", cap(rr.buf), len(b))
		}
	})
}

// snapshotBytes frames records as a checkpoint claiming count entries.
func snapshotBytes(count uint32, records ...[]byte) []byte {
	b := binary.LittleEndian.AppendUint32([]byte(snapMagic), count)
	for _, rec := range records {
		b = append(b, rec...)
	}
	return b
}

func FuzzLoadSnapshot(f *testing.F) {
	recs := codecSeeds()
	whole := snapshotBytes(uint32(len(recs)), recs...)
	f.Add(whole)
	f.Add(whole[:len(whole)-3])              // ends mid-record
	f.Add(snapshotBytes(1<<31, recs[0]))     // count far beyond the content
	f.Add(snapshotBytes(0, recs[0]))         // count below the content
	f.Add(snapshotBytes(0))                  // empty engine
	f.Add([]byte(snapMagic))                 // header cut short
	f.Add(append([]byte(walMagic), 0, 0, 0)) // wrong magic
	f.Fuzz(func(t *testing.T, b []byte) {
		delivered := 0
		n, err := readSnapshot(bytes.NewReader(b), int64(len(b)), func([]byte, Entry, bool) { delivered++ })
		if n != delivered {
			t.Fatalf("reported %d entries, delivered %d", n, delivered)
		}
		if delivered > len(b)/(recHeader+recFixed) {
			t.Fatalf("%d entries out of %d bytes", delivered, len(b))
		}
		if err == nil && uint32(n) != binary.LittleEndian.Uint32(b[magicLen:]) {
			t.Fatalf("accepted %d entries against a header count of %d", n, binary.LittleEndian.Uint32(b[magicLen:]))
		}
	})
}

func FuzzLoadManifest(f *testing.F) {
	f.Add([]byte("pdcedu-wal v2\nshards 128\nbuckets 1024\n"))
	f.Add([]byte("pdcedu-wal v1\nshards 2\nbuckets 32\n"))
	f.Add([]byte("pdcedu-wal v2\nshards 99999999999999999999\nbuckets 1\n"))
	f.Add([]byte("pdcedu-wal v2\nshards 1073741824\nbuckets 1073741824\n"))
	f.Add([]byte("pdcedu-wal v2\nshards -4\nbuckets 16\n"))
	f.Add([]byte("pdcedu-wal v2\nshards 8\n"))
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
