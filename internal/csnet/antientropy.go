package csnet

import (
	"encoding/binary"
	"fmt"
)

// This file holds the wire codecs of the Merkle anti-entropy exchange
// (OpTreeV / OpRangeV). The tree layout is store.Digest's: a complete
// binary tree over B leaf buckets, heap-indexed — node 1 is the root,
// node i's children are 2i and 2i+1, leaf b is node B+b.

// EncodeBucketList serializes a list of tree node or bucket indexes:
// count(4) then count * index(4). It is the request body of both
// OpTreeV (node indexes) and OpRangeV (bucket indexes).
func EncodeBucketList(ids []uint32) []byte {
	buf := make([]byte, 4, 4+4*len(ids))
	binary.BigEndian.PutUint32(buf, uint32(len(ids)))
	var s [4]byte
	for _, id := range ids {
		binary.BigEndian.PutUint32(s[:], id)
		buf = append(buf, s[:]...)
	}
	return buf
}

// DecodeBucketList parses an EncodeBucketList body.
func DecodeBucketList(b []byte) ([]uint32, error) {
	n, err := bucketListLen(b)
	if err != nil {
		return nil, err
	}
	ids := make([]uint32, n)
	for i := range ids {
		ids[i] = bucketListAt(b, i)
	}
	return ids, nil
}

// bucketListLen checks an EncodeBucketList body and returns its count.
func bucketListLen(b []byte) (int, error) {
	if len(b) < 4 {
		return 0, fmt.Errorf("csnet: bucket list too short (%d bytes)", len(b))
	}
	n := int(binary.BigEndian.Uint32(b))
	if len(b)-4 != 4*n {
		return 0, fmt.Errorf("csnet: bucket list count %d but %d body bytes", n, len(b)-4)
	}
	return n, nil
}

// bucketListAt is index i of a body bucketListLen accepted.
func bucketListAt(b []byte, i int) uint32 { return binary.BigEndian.Uint32(b[4+4*i:]) }

// TreeNode is one (node index, hash) pair of an OpTreeV response.
type TreeNode struct {
	Node uint32
	Hash uint64
}

// EncodeTree serializes an OpTreeV response: buckets(4) count(4) then
// count * (node(4) hash(8)). Carrying the tree geometry lets a
// coordinator detect a replica whose engine was configured with a
// different bucket count instead of mis-diffing against it.
func EncodeTree(buckets int, nodes []TreeNode) []byte {
	buf := make([]byte, 8, 8+12*len(nodes))
	binary.BigEndian.PutUint32(buf, uint32(buckets))
	binary.BigEndian.PutUint32(buf[4:], uint32(len(nodes)))
	var s [12]byte
	for _, n := range nodes {
		binary.BigEndian.PutUint32(s[:4], n.Node)
		binary.BigEndian.PutUint64(s[4:], n.Hash)
		buf = append(buf, s[:]...)
	}
	return buf
}

// DecodeTree parses an OpTreeV response body.
func DecodeTree(b []byte) (buckets int, nodes []TreeNode, err error) {
	if len(b) < 8 {
		return 0, nil, fmt.Errorf("csnet: tree response too short (%d bytes)", len(b))
	}
	buckets = int(binary.BigEndian.Uint32(b))
	n := int(binary.BigEndian.Uint32(b[4:]))
	b = b[8:]
	if len(b) != 12*n {
		return 0, nil, fmt.Errorf("csnet: tree node count %d but %d body bytes", n, len(b))
	}
	nodes = make([]TreeNode, n)
	for i := range nodes {
		nodes[i].Node = binary.BigEndian.Uint32(b[12*i:])
		nodes[i].Hash = binary.BigEndian.Uint64(b[12*i+4:])
	}
	return buckets, nodes, nil
}

// KeyDigest is one entry of an OpRangeV bucket listing: everything the
// anti-entropy planner needs to order two copies without their values
// — version for the LWW race, digest for same-version value splits,
// tombstone for the delete tie-break.
type KeyDigest struct {
	Key       string
	Version   uint64
	Digest    uint64
	Tombstone bool
}

// rangeVEntryMin is the smallest wire size of one RangeV entry:
// keyLen(2) version(8) digest(8) flags(1) plus an empty key.
const rangeVEntryMin = 2 + 8 + 8 + 1

// appendRangeVEntry appends one entry of an OpRangeV listing —
// keyLen(2) key version(8) digest(8) flags(1), after the listing's
// count(4) — as DecodeRangeV reads it; the caller has checked the key
// length.
func appendRangeVEntry(buf []byte, e KeyDigest) []byte {
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(e.Key)))
	buf = append(buf, e.Key...)
	buf = binary.BigEndian.AppendUint64(buf, e.Version)
	buf = binary.BigEndian.AppendUint64(buf, e.Digest)
	var flags byte
	if e.Tombstone {
		flags |= FlagTombstone
	}
	return append(buf, flags)
}

// DecodeRangeV parses an OpRangeV response body into one allocation,
// the slice: every entry's Key aliases b (see the ownership rule in
// mux.go).
func DecodeRangeV(b []byte) ([]KeyDigest, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("csnet: range listing too short (%d bytes)", len(b))
	}
	n := int(binary.BigEndian.Uint32(b))
	b = b[4:]
	// Reject counts the body cannot possibly hold before allocating.
	if n > len(b)/rangeVEntryMin {
		return nil, fmt.Errorf("csnet: range entry count %d exceeds body size %d", n, len(b))
	}
	entries := make([]KeyDigest, 0, n)
	for i := 0; i < n; i++ {
		if len(b) < 2 {
			return nil, fmt.Errorf("csnet: truncated range listing at entry %d", i)
		}
		kl := int(binary.BigEndian.Uint16(b))
		if len(b) < 2+kl+8+8+1 {
			return nil, fmt.Errorf("csnet: truncated range entry %d", i)
		}
		e := KeyDigest{
			Key:     aliasString(b[2 : 2+kl]),
			Version: binary.BigEndian.Uint64(b[2+kl:]),
			Digest:  binary.BigEndian.Uint64(b[2+kl+8:]),
		}
		flags := b[2+kl+16]
		if flags&flagRetiredExpiry != 0 {
			return nil, fmt.Errorf("csnet: range entry %d: %w", i, errRetiredExpiry)
		}
		e.Tombstone = flags&FlagTombstone != 0
		b = b[2+kl+17:]
		entries = append(entries, e)
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("csnet: %d trailing bytes after range listing", len(b))
	}
	return entries, nil
}
