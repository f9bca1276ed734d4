package main

import (
	"testing"
	"time"
)

func sum(parts [numLayers]int64) int64 {
	var s int64
	for _, v := range parts {
		s += v
	}
	return s
}

func TestPartitionOverlappingChildren(t *testing.T) {
	// An op [0,100) fans out two calls at once (ExecIndependent), then runs
	// a 2PC: two overlapping prepares and one commit. Handlers nest in the
	// calls; a log fsync covers part of one handler.
	kids := []interval{
		{10, 40, layerTransport}, {15, 50, layerTransport}, // fan-out
		{12, 20, layerMemnode}, {30, 45, layerMemnode},
		{60, 80, layerTransport}, {62, 82, layerTransport}, // prepares
		{64, 70, layerMemnode}, {66, 78, layerMemnode},
		{68, 76, layerWAL},
		{85, 95, layerTransport}, // commit
		{90, 120, layerMemnode},  // runs past the op: clipped
	}
	got := partition(0, 100, kids)
	want := [numLayers]int64{
		layerCore:      10 + 10 + 3,            // [0,10) [50,60) [82,85)
		layerTransport: 2 + 10 + 5 + 4 + 4 + 5, // [10,12) [20,30) [45,50) [60,64) [78,82) [85,90)
		layerMemnode:   8 + 15 + 4 + 2 + 10,    // [12,20) [30,45) [64,68) [76,78) [90,100)
		layerWAL:       8,                      // [68,76)
	}
	if got != want {
		t.Fatalf("partition = %v, want %v", got, want)
	}
	if sum(got) != 100 {
		t.Fatalf("parts sum to %d, want the op's 100", sum(got))
	}
}

func TestPartitionNoChildrenIsAllCore(t *testing.T) {
	got := partition(5, 25, nil)
	if got[layerCore] != 20 || sum(got) != 20 {
		t.Fatalf("partition = %v, want 20 ns of core", got)
	}
}

func TestAnalyzeLinksSpansAcrossLayers(t *testing.T) {
	// One op with two overlapping calls to different memnodes (the prepare
	// round of a 2PC), each answered by a handler matched by (node, kind,
	// txid); node 1's handler waits on a group-commit fsync that started
	// before it. A stray handler with an unknown txid must not be attributed.
	spans := []span{
		{start: 0, end: 100, op: 7, node: -1, layer: layerCore, kind: kindBatch},
		{start: 10, end: 60, txid: 42, op: 7, node: 0, layer: layerTransport, kind: kindPrepare},
		{start: 20, end: 70, txid: 42, op: 7, node: 1, layer: layerTransport, kind: kindPrepare},
		{start: 15, end: 50, txid: 42, op: -1, node: 0, layer: layerMemnode, kind: kindPrepare, logs: true},
		{start: 25, end: 65, txid: 42, op: -1, node: 1, layer: layerMemnode, kind: kindPrepare, logs: true, abort: true},
		{start: 5, end: 40, op: -1, node: 1, layer: layerWAL, kind: kindSync},
		{start: 0, end: 5, txid: 99, op: -1, node: 0, layer: layerMemnode, kind: kindCommit},
	}
	r := analyze(spans)
	if r.ops != 1 || r.calls != 2 || r.handlers != 3 {
		t.Fatalf("ops/calls/handlers = %d/%d/%d, want 1/2/3", r.ops, r.calls, r.handlers)
	}
	want := [numLayers]int64{
		layerCore:      10 + 30, // [0,10) [70,100)
		layerTransport: 5 + 5,   // [10,15) [65,70)
		layerMemnode:   10 + 25, // [15,25) [40,65)
		layerWAL:       15,      // [25,40)
	}
	if r.parts != want {
		t.Fatalf("parts = %v, want %v", r.parts, want)
	}
	if r.sumErr != 0 || sum(r.parts) != r.opTime {
		t.Fatalf("parts sum to %d, op span %d", sum(r.parts), r.opTime)
	}
	wantParent := []int32{-1, 0, 0, 1, 2, -1, -1}
	for i, p := range wantParent {
		if r.parent[i] != p {
			t.Errorf("span %d parent = %d, want %d", i, r.parent[i], p)
		}
	}
	// Call self time subtracts the matched handler: (50-35) + (50-40).
	if r.callSelf != 25 {
		t.Errorf("callSelf = %d, want 25", r.callSelf)
	}
	// Handler self time subtracts overlapping log time: 35 + (40-15) + 5.
	if r.handlerSelf != 65 {
		t.Errorf("handlerSelf = %d, want 65", r.handlerSelf)
	}
	if r.minitx != 1 || r.twoPC != 1 || r.execResps != 2 || r.aborts != 1 || r.syncs != 1 {
		t.Errorf("minitx/2PC/votes/aborts/syncs = %d/%d/%d/%d/%d, want 1/1/2/1/1",
			r.minitx, r.twoPC, r.execResps, r.aborts, r.syncs)
	}
}

func durations(n int) []time.Duration {
	s := make([]time.Duration, n)
	for i := range s {
		s[i] = time.Duration(i + 1)
	}
	return s
}

func TestPercentileNearestRank(t *testing.T) {
	s := durations(1000)
	for _, c := range []struct {
		q      float64
		v      time.Duration
		beyond int
	}{{0.5, 500, 500}, {0.99, 990, 10}, {0.999, 999, 1}, {1, 1000, 0}} {
		v, beyond := percentile(s, c.q)
		if v != c.v || beyond != c.beyond {
			t.Errorf("percentile(%v) = %v with %d beyond, want %v with %d", c.q, v, beyond, c.v, c.beyond)
		}
	}
	if v, beyond := percentile(nil, 0.5); v != 0 || beyond != 0 {
		t.Errorf("percentile(nil) = %v, %d", v, beyond)
	}
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n      int
		wantQ  float64
		beyond int
	}{
		{1000, 0.99, 10}, // exactly ten beyond p99
		{999, 0.95, 49},  // nine beyond p99: fall back
		{100, 0.9, 10},
		{20, 0.5, 10},
		{15, 0.5, 7}, // nothing qualifies: the median, flagged by its count
	} {
		s := durations(c.n)
		q, v := tail(s, 0.99)
		if _, beyond := percentile(s, q); q != c.wantQ || beyond != c.beyond {
			t.Errorf("n=%d: tail = p%g (=%v) with %d beyond, want p%g with %d", c.n, q*100, v, beyond, c.wantQ*100, c.beyond)
		}
	}
}
