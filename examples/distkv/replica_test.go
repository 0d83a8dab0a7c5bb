package main

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

func TestReplicatedKVSequential(t *testing.T) {
	r, err := NewReplicatedKV(3, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Write(1, "grade", "A"); err != nil {
		t.Fatal(err)
	}
	// A sequential write is visible at every replica immediately.
	for rep := 0; rep < 3; rep++ {
		v, ok, err := r.Read(rep, "grade")
		if err != nil || !ok || v != "A" {
			t.Fatalf("replica %d read = %q %v %v, want \"A\" true nil", rep, v, ok, err)
		}
	}
	if d := r.Divergent(); d != nil {
		t.Errorf("sequential store divergent = %v, want nil", d)
	}
}

func TestReplicatedKVEventualConvergence(t *testing.T) {
	r, err := NewReplicatedKV(3, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Write(0, "grade", "B+"); err != nil {
		t.Fatal(err)
	}
	if err := r.Write(2, "grade", "A-"); err != nil {
		t.Fatal(err)
	}
	if err := r.Write(1, "units", "3"); err != nil {
		t.Fatal(err)
	}
	// Before gossip: replica 1 has no grade, replicas 0 and 2 disagree,
	// and units exists only at replica 1.
	if _, ok, _ := r.Read(1, "grade"); ok {
		t.Error("replica 1 sees a grade before gossip")
	}
	if d := r.Divergent(); !reflect.DeepEqual(d, []string{"grade", "units"}) {
		t.Errorf("Divergent = %v, want [grade units]", d)
	}
	r.Gossip()
	// Last writer wins: the replica-2 write of "A-" is the newest grade.
	for rep := 0; rep < 3; rep++ {
		v, ok, err := r.Read(rep, "grade")
		if err != nil || !ok || v != "A-" {
			t.Fatalf("after gossip replica %d grade = %q %v %v, want \"A-\"", rep, v, ok, err)
		}
		if v, ok, _ := r.Read(rep, "units"); !ok || v != "3" {
			t.Fatalf("after gossip replica %d units = %q %v, want \"3\"", rep, v, ok)
		}
	}
	if d := r.Divergent(); d != nil {
		t.Errorf("Divergent after gossip = %v, want nil", d)
	}
}

func TestReplicatedKVGossipIdempotent(t *testing.T) {
	r, _ := NewReplicatedKV(2, false)
	_ = r.Write(0, "k", "v1")
	r.Gossip()
	_ = r.Write(1, "k", "v2")
	r.Gossip()
	r.Gossip()
	for rep := 0; rep < 2; rep++ {
		if v, _, _ := r.Read(rep, "k"); v != "v2" {
			t.Errorf("replica %d = %q, want the later write v2", rep, v)
		}
	}
}

func TestReplicatedKVErrors(t *testing.T) {
	if _, err := NewReplicatedKV(0, true); err == nil {
		t.Error("NewReplicatedKV(0) should fail")
	}
	r, _ := NewReplicatedKV(2, false)
	if err := r.Write(2, "k", "v"); err == nil {
		t.Error("Write to replica 2 of 2 should fail")
	}
	if _, _, err := r.Read(-1, "k"); err == nil {
		t.Error("Read at replica -1 should fail")
	}
	if r.Replicas() != 2 || r.Sequential() {
		t.Errorf("accessors: replicas=%d sequential=%v", r.Replicas(), r.Sequential())
	}
}

// TestReplicatedKVConcurrent drives concurrent writers at distinct
// replicas plus a gossiping goroutine; must be race-clean and converge.
func TestReplicatedKVConcurrent(t *testing.T) {
	const n = 4
	r, _ := NewReplicatedKV(n, false)
	var wg sync.WaitGroup
	for rep := 0; rep < n; rep++ {
		rep := rep
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if err := r.Write(rep, fmt.Sprintf("key-%d", i%10), fmt.Sprintf("r%d-%d", rep, i)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			r.Gossip()
		}
	}()
	wg.Wait()
	r.Gossip()
	if d := r.Divergent(); d != nil {
		t.Errorf("still divergent after final gossip: %v", d)
	}
}
