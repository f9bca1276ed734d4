// Command perfbench is the repository benchmark. It assembles the Minuet
// stack from the packages' public constructors, runs one closed-loop
// workload for a fixed window after a warm-up, checks the outputs, and
// prints its metrics; the last line of standard output is one JSON object.
// With --trace 1 it also runs a traced window and prints per-layer metrics
// measured by wrapping the interfaces the layers meet at. See README.md.
//
//	go run . --workload point-mem --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"minuet/internal/core"
)

const (
	// setupRuns is how many times a run builds and preloads the stack;
	// setup_s is their median and the last stack is measured.
	setupRuns = 5
	// warmup runs the clients before every measured window: caches fill
	// and the heap and log reach their steady size.
	warmup = 3 * time.Second
	// workDir holds log directories and written-out spans, relative to the
	// directory the benchmark runs in.
	workDir = ".bench_build/perfbench"
)

type metric struct {
	name, unit string
	value      float64
	note       string
}

func main() {
	name := flag.String("workload", "", "workload to run: point-mem, htap-mem, ingest-tcp-wal or all")
	seed := flag.Int64("seed", 1, "seed for the workload's inputs")
	seconds := flag.Int("seconds", 10, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "1: also run a traced window and print per-layer metrics")
	flag.Parse()
	names := []string{*name}
	if *name == "all" {
		names = workloadNames
	}
	for _, n := range names {
		if err := run(n, *seed, time.Duration(*seconds)*time.Second, *trace == 1); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
	}
}

// result is the JSON object printed as the last line.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(name string, seed int64, window time.Duration, traced bool) error {
	dataDir := filepath.Join(workDir, "data-"+name)
	if err := os.RemoveAll(dataDir); err != nil {
		return err
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}
	defer func() {
		if err := os.RemoveAll(dataDir); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: cleanup:", err)
		}
	}()
	rec := newRecorder()
	w, err := newWorkload(name, rec, dataDir)
	if err != nil {
		return err
	}
	// heap_mb counts the stack's heap, not the workload's own inputs.
	heapBase := liveHeap()

	var setups []float64
	var cl *cluster
	for i := 0; i < setupRuns; i++ {
		if cl != nil {
			cl.close()
		}
		t0 := time.Now()
		cl, err = w.setup()
		setups = append(setups, time.Since(t0).Seconds())
		if err != nil {
			if cl != nil {
				cl.close()
			}
			return fmt.Errorf("%s setup: %w", name, err)
		}
	}
	defer cl.close()
	setupS := median(setups)
	printMeta(name, seed, w, dataDir, window)

	clients := make([]*client, len(cl.proxies))
	for i, p := range cl.proxies {
		clients[i] = &client{id: i, px: p, rng: rand.New(rand.NewSource(seed*1000 + int64(i)))}
	}
	runClients(w, clients, warmup, false)
	plain := measure(w, cl, clients, window, heapBase)
	res := result{Correct: true, Attempted: plain.attempted, Failed: plain.failed, Metrics: map[string]jsonMetric{}}
	var ms []metric
	if traced {
		rec.on.Store(true)
		tw := measure(w, cl, clients, window, heapBase)
		rec.on.Store(false)
		res.Attempted, res.Failed = tw.attempted, tw.failed
		spans, release := rec.take()
		ms, err = layerMetrics(name, cl, plain, tw, spans)
		release()
		if err != nil {
			res.Correct = false
			fmt.Fprintln(os.Stderr, "perfbench: trace:", err)
		}
	} else {
		ms = endToEnd(w, plain, setupS, setups)
		printIssueMetrics(name, plain, setupS)
	}
	fmt.Println("# keys completed in each second of the window:", plain.keysPerSec)
	fmt.Printf("# machine CPU ticks during the window: user %d system %d idle %d iowait %d steal %d\n",
		plain.host[0]+plain.host[1], plain.host[2]+plain.host[5]+plain.host[6], plain.host[3], plain.host[4], plain.host[7])
	if plain.firstErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: first failed op:", plain.firstErr)
	}
	if err := w.verify(cl); err != nil {
		res.Correct = false
		fmt.Fprintf(os.Stderr, "perfbench: %s output check failed: %v\n", name, err)
	} else {
		fmt.Printf("# check %s: passed\n", name)
	}
	fmt.Println("# metrics in the JSON line:")
	for _, m := range ms {
		if m.note != "" {
			fmt.Printf("# %-28s %14.4f %-6s %s\n", m.name, m.value, m.unit, m.note)
		} else {
			fmt.Printf("# %-28s %14.4f %s\n", m.name, m.value, m.unit)
		}
		res.Metrics[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// runClients runs every client's closed loop until d has passed and returns
// the time until the last op finished.
func runClients(w workload, clients []*client, d time.Duration, record bool) time.Duration {
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for _, c := range clients {
		c.recording = record
		c.start = start
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				w.step(c)
			}
		}(c)
	}
	wg.Wait()
	return time.Since(start)
}

// windowStats is what one measured window produced.
type windowStats struct {
	elapsed           time.Duration
	lat               [numOpKinds]latSummary
	keysPerSec        []int64       // keys completed in each whole second
	cpu               time.Duration // process user+system CPU time
	host              [8]int64      // /proc/stat cpu ticks: user nice system idle iowait irq softirq steal
	attempted, failed int64
	keys, written     int64
	firstErr          error
	tree              core.Stats // summed over proxies, window delta
	mallocs, allocB   uint64
	numGC             uint32
	gcCPU             float64 // seconds
	heapMB            float64 // live heap after a forced GC at the end, less heapBase
}

// latSummary is one op kind's latency distribution.
type latSummary struct {
	n      int
	p50    time.Duration
	tailQ  float64 // the highest percentile up to p99 with minTail samples beyond
	tail   time.Duration
	beyond int
	enough bool // tailQ is p99
}

func summarize(sorted []time.Duration) latSummary {
	s := latSummary{n: len(sorted)}
	s.p50, _ = percentile(sorted, 0.5)
	s.tailQ, s.tail = tail(sorted, 0.99)
	_, s.beyond = percentile(sorted, s.tailQ)
	s.enough = s.tailQ == 0.99
	return s
}

const gcCPUMetric = "/cpu/classes/gc/total:cpu-seconds"

func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: gcCPUMetric}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

func treeStats(cl *cluster) core.Stats {
	var s core.Stats
	for _, p := range cl.proxies {
		t := p.bt.Stats()
		s.Ops += t.Ops
		s.Retries += t.Retries
		s.CacheHits += t.CacheHits
		s.CacheMiss += t.CacheMiss
		s.CopyOnWr += t.CopyOnWr
	}
	return s
}

// processCPU returns the user and system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostCPU returns the machine's CPU time split, in ticks, from /proc/stat.
func hostCPU() (t [8]int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return t
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i := range t {
		if i+1 < len(f) {
			t[i], _ = strconv.ParseInt(f[i+1], 10, 64)
		}
	}
	return t
}

// liveHeap returns the live heap in bytes after a forced GC.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

func measure(w workload, cl *cluster, clients []*client, d time.Duration, heapBase uint64) windowStats {
	for _, c := range clients {
		c.attempted, c.failed, c.keys, c.written, c.firstErr = 0, 0, 0, 0, nil
	}
	var m0, m1 runtime.MemStats
	t0 := treeStats(cl)
	runtime.ReadMemStats(&m0)
	gc0, cpu0, host0 := gcCPUSeconds(), processCPU(), hostCPU()
	elapsed := runClients(w, clients, d, true)
	gc1, cpu1, host1 := gcCPUSeconds(), processCPU(), hostCPU()
	runtime.ReadMemStats(&m1)
	t1 := treeStats(cl)

	ws := windowStats{
		elapsed: elapsed,
		tree: core.Stats{
			Ops: t1.Ops - t0.Ops, Retries: t1.Retries - t0.Retries,
			CacheHits: t1.CacheHits - t0.CacheHits, CacheMiss: t1.CacheMiss - t0.CacheMiss,
			CopyOnWr: t1.CopyOnWr - t0.CopyOnWr,
		},
		mallocs:    m1.Mallocs - m0.Mallocs,
		allocB:     m1.TotalAlloc - m0.TotalAlloc,
		numGC:      m1.NumGC - m0.NumGC,
		gcCPU:      gc1 - gc0,
		keysPerSec: make([]int64, int(elapsed/time.Second)),
		cpu:        cpu1 - cpu0,
	}
	for i := range host1 {
		ws.host[i] = host1[i] - host0[i]
	}
	for k := range ws.lat {
		n := 0
		for _, c := range clients {
			n += c.lat[k].len()
		}
		all := newChunk[time.Duration](n)
		rest := all.vals
		for _, c := range clients {
			rest = c.lat[k].appendTo(rest)
			c.lat[k].free()
		}
		slices.Sort(all.vals)
		ws.lat[k] = summarize(all.vals)
		all.release()
	}
	for _, c := range clients {
		c.done.each(func(s sample) {
			if sec := int(s.at / time.Second); sec < len(ws.keysPerSec) {
				ws.keysPerSec[sec] += int64(s.keys)
			}
		})
		c.done.free()
		ws.attempted += c.attempted
		ws.failed += c.failed
		ws.keys += c.keys
		ws.written += c.written
		if ws.firstErr == nil {
			ws.firstErr = c.firstErr
		}
	}
	ws.heapMB = (float64(liveHeap()) - float64(heapBase)) / 1e6
	return ws
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func perSec(n int64, d time.Duration) float64 { return float64(n) / d.Seconds() }

// latMetric reports one op kind's median, or with tail its highest
// percentile up to p99 that keeps minTail samples beyond it, in unit
// (time.Microsecond or time.Millisecond), with the sample count.
func latMetric(name string, s latSummary, tail bool, unit time.Duration) metric {
	u := map[time.Duration]string{time.Microsecond: "us", time.Millisecond: "ms"}[unit]
	if !tail {
		return metric{name: name, unit: u, value: float64(s.p50) / float64(unit), note: fmt.Sprintf("p50 of n=%d", s.n)}
	}
	note := fmt.Sprintf("p%g of n=%d, %d beyond", s.tailQ*100, s.n, s.beyond)
	if !s.enough {
		note += " (too few samples for p99)"
	}
	return metric{name: name, unit: u, value: float64(s.tail) / float64(unit), note: note}
}

// endToEnd returns the metrics every workload reports under one name, the
// ones the JSON line carries with --trace 0 and the ones a regression is
// judged on. Tail latencies are printed by printIssueMetrics but not gated:
// on a shared 2-CPU machine their run-to-run spread exceeds any useful
// bound.
func endToEnd(w workload, ws windowStats, setupS float64, setups []float64) []metric {
	return []metric{
		{name: "setup_s", unit: "s", value: setupS, note: fmt.Sprintf("median of %d: %.3f", len(setups), setups)},
		{name: "keys_per_s", unit: "1/s", value: perSec(ws.keys, ws.elapsed)},
		{name: "write_keys_per_s", unit: "1/s", value: perSec(ws.written, ws.elapsed)},
		latMetric("op_p50_us", ws.lat[w.opKind()], false, time.Microsecond),
		latMetric("write_p50_us", ws.lat[w.writeKind()], false, time.Microsecond),
		{name: "cpu_us_per_key", unit: "us", value: float64(ws.cpu.Microseconds()) / float64(ws.keys),
			note: fmt.Sprintf("process CPU %.2f s", ws.cpu.Seconds())},
		{name: "heap_mb", unit: "MB", value: ws.heapMB},
	}
}

// printIssueMetrics prints each workload's end-to-end metrics under their
// workload-specific names, with sample counts, for readers of the log.
func printIssueMetrics(name string, ws windowStats, setupS float64) {
	fail := float64(ws.failed) / float64(max(ws.attempted, 1))
	var ms []metric
	switch name {
	case "point-mem":
		ms = []metric{
			{name: "point_ops_per_s", unit: "1/s", value: perSec(ws.keys, ws.elapsed)},
			latMetric("get_p50_us", ws.lat[kindGet], false, time.Microsecond),
			latMetric("get_p99_us", ws.lat[kindGet], true, time.Microsecond),
			latMetric("put_p50_us", ws.lat[kindPut], false, time.Microsecond),
			latMetric("put_p99_us", ws.lat[kindPut], true, time.Microsecond),
			{name: "heap_mb", unit: "MB", value: ws.heapMB},
		}
	case "htap-mem":
		ms = []metric{
			{name: "put_ops_per_s", unit: "1/s", value: perSec(ws.written, ws.elapsed)},
			{name: "scan_keys_per_s", unit: "1/s", value: perSec(ws.keys-ws.written, ws.elapsed)},
			latMetric("put_p50_us", ws.lat[kindPut], false, time.Microsecond),
			latMetric("put_p99_us", ws.lat[kindPut], true, time.Microsecond),
			latMetric("scan_p50_ms", ws.lat[kindScan], false, time.Millisecond),
			latMetric("scan_p99_ms", ws.lat[kindScan], true, time.Millisecond),
		}
	case "ingest-tcp-wal":
		ms = []metric{
			{name: "ingest_keys_per_s", unit: "1/s", value: perSec(ws.written, ws.elapsed)},
			latMetric("batch_p50_ms", ws.lat[kindBatch], false, time.Millisecond),
			latMetric("batch_p99_ms", ws.lat[kindBatch], true, time.Millisecond),
			{name: "heap_mb", unit: "MB", value: ws.heapMB},
		}
	}
	ms = append(ms,
		metric{name: "setup_s", unit: "s", value: setupS},
		metric{name: "fail_frac", unit: "frac", value: fail, note: fmt.Sprintf("%d of %d ops", ws.failed, ws.attempted)})
	fmt.Printf("# %s end-to-end (workload names):\n", name)
	for _, m := range ms {
		fmt.Printf("#   %-20s %14.4f %-4s %s\n", m.name, m.value, m.unit, m.note)
	}
}
