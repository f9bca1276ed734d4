package main

import (
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a reported percentile.
const minTail = 10

// percentile returns the nearest-rank q-quantile of sorted and the number of
// samples above it.
func percentile(sorted []time.Duration, q float64) (v time.Duration, beyond int) {
	if len(sorted) == 0 {
		return 0, 0
	}
	// The epsilon keeps float error in q*n from moving an exact rank up.
	i := int(math.Ceil(q*float64(len(sorted))-1e-9)) - 1
	i = max(0, min(i, len(sorted)-1))
	return sorted[i], len(sorted) - 1 - i
}

// tailQuantiles are the percentiles tail may report, highest first.
var tailQuantiles = []float64{0.99, 0.95, 0.9, 0.5}

// tail returns the highest percentile, at most want, that keeps minTail
// samples beyond it, or the median when none does.
func tail(sorted []time.Duration, want float64) (q float64, v time.Duration) {
	for _, q := range tailQuantiles {
		if q > want {
			continue
		}
		if v, beyond := percentile(sorted, q); beyond >= minTail {
			return q, v
		}
	}
	v, _ = percentile(sorted, 0.5)
	return 0.5, v
}

// interval is a child span's time, clipped to its op, at some layer.
type interval struct {
	start, end int64
	layer      layer
}

// partition splits [start, end) among layers: each instant goes to the
// deepest layer that has an interval covering it, or to core where none
// does. Overlapping children (ExecIndependent fan-out, the prepare round of
// 2PC) are therefore counted once, and the parts sum to end-start.
func partition(start, end int64, kids []interval) [numLayers]int64 {
	type event struct {
		t     int64
		delta int
		l     layer
	}
	evs := make([]event, 0, 2*len(kids))
	for _, k := range kids {
		s, e := max(k.start, start), min(k.end, end)
		if s < e {
			evs = append(evs, event{s, 1, k.layer}, event{e, -1, k.layer})
		}
	}
	sort.Slice(evs, func(i, j int) bool { return evs[i].t < evs[j].t })
	var active [numLayers]int
	deepest := func() layer {
		for l := numLayers - 1; l > layerCore; l-- {
			if active[l] > 0 {
				return l
			}
		}
		return layerCore
	}
	var out [numLayers]int64
	prev := start
	for _, e := range evs {
		out[deepest()] += e.t - prev
		prev = e.t
		active[e.l] += e.delta
	}
	out[deepest()] += end - prev
	return out
}

// traceReport sums a traced window's spans.
type traceReport struct {
	ops, calls, handlers int
	opTime               int64            // Σ op spans
	parts                [numLayers]int64 // Σ of each op's partition
	sumErr               int64            // largest |Σ parts - span| of one op
	callSelf             int64            // Σ call minus its matched handler
	handlerTime          int64
	handlerSelf          int64 // Σ handler minus the log time it overlaps
	execResps, aborts    int
	minitx, twoPC        int
	syncs                int
	syncDurs             []time.Duration // sorted
	writeBytes           int64
	snapshotTime         int64
	scanTime             int64
	parent               []int32 // per span, for writing the spans out
}

type callKey struct {
	node int16
	kind kind
	txid uint64
}

// analyze links spans into op → call → handler trees and partitions each
// op's wall time among the layers. Memnode spans find their call by
// (node, request kind, txid); log spans count against a memnode span that
// writes the log on the same node while they overlap it, since its request
// waits on that write or fsync (group commit).
func analyze(spans []span) traceReport {
	var r traceReport
	r.parent = make([]int32, len(spans))
	opIdx := map[int32]int32{}
	callIdx := map[callKey]int32{}
	walByNode := map[int16][]int32{}
	for i, s := range spans {
		r.parent[i] = -1
		switch {
		case s.layer == layerCore && s.kind < numOpKinds:
			opIdx[s.op] = int32(i)
		case s.layer == layerTransport && s.txid != 0:
			callIdx[callKey{s.node, s.kind, s.txid}] = int32(i)
		case s.layer == layerWAL:
			walByNode[s.node] = append(walByNode[s.node], int32(i))
		}
	}
	maxWAL := map[int16]int64{}
	for n, idx := range walByNode {
		sort.Slice(idx, func(a, b int) bool { return spans[idx[a]].start < spans[idx[b]].start })
		for _, i := range idx {
			maxWAL[n] = max(maxWAL[n], spans[i].dur())
		}
	}
	// walKids returns the log time on h's node that overlaps h.
	walKids := func(h span) []interval {
		idx := walByNode[h.node]
		j := sort.Search(len(idx), func(a int) bool { return spans[idx[a]].start >= h.end })
		var out []interval
		for j--; j >= 0 && spans[idx[j]].start > h.start-maxWAL[h.node]; j-- {
			w := spans[idx[j]]
			if w.end > h.start {
				out = append(out, interval{max(w.start, h.start), min(w.end, h.end), layerWAL})
			}
		}
		return out
	}

	kids := map[int32][]interval{} // op span index → its calls, handlers, log time
	callHandler := map[int32]int64{}
	prepared := map[uint64]bool{}
	for i, s := range spans {
		switch s.layer {
		case layerCore:
			if s.kind == kindSnapshot {
				if p, ok := opIdx[s.op]; ok {
					r.parent[i] = p
				}
				r.snapshotTime += s.dur()
			}
		case layerTransport:
			r.calls++
			if p, ok := opIdx[s.op]; ok {
				r.parent[i] = p
				kids[p] = append(kids[p], interval{s.start, s.end, layerTransport})
			}
			switch s.kind {
			case kindExecCommit:
				r.minitx++
			case kindPrepare:
				if !prepared[s.txid] {
					prepared[s.txid] = true
					r.minitx++
					r.twoPC++
				}
			}
		case layerMemnode:
			r.handlers++
			r.handlerTime += s.dur()
			if s.kind == kindExecCommit || s.kind == kindPrepare {
				r.execResps++
				if s.abort {
					r.aborts++
				}
			}
			var logTime []interval
			if s.logs {
				logTime = walKids(s)
			}
			r.handlerSelf += s.dur() - partition(s.start, s.end, logTime)[layerWAL]
			if s.txid == 0 {
				continue
			}
			c, ok := callIdx[callKey{s.node, s.kind, s.txid}]
			if !ok {
				continue
			}
			r.parent[i] = c
			callHandler[c] += s.dur()
			if p, ok := opIdx[spans[c].op]; ok {
				kids[p] = append(kids[p], interval{s.start, s.end, layerMemnode})
				kids[p] = append(kids[p], logTime...)
			}
		case layerWAL:
			switch s.kind {
			case kindSync, kindSyncDir:
				r.syncs++
				r.syncDurs = append(r.syncDurs, time.Duration(s.dur()))
			case kindWrite:
				r.writeBytes += s.bytes
			}
		}
	}
	for i, s := range spans {
		if s.layer == layerTransport {
			r.callSelf += s.dur() - callHandler[int32(i)]
		}
	}
	for _, p := range opIdx {
		op := spans[p]
		r.ops++
		r.opTime += op.dur()
		if op.kind == kindScan {
			r.scanTime += op.dur()
		}
		parts := partition(op.start, op.end, kids[p])
		var sum int64
		for l, v := range parts {
			r.parts[l] += v
			sum += v
		}
		if d := sum - op.dur(); d > r.sumErr || -d > r.sumErr {
			r.sumErr = max(d, -d)
		}
	}
	sort.Slice(r.syncDurs, func(a, b int) bool { return r.syncDurs[a] < r.syncDurs[b] })
	return r
}
