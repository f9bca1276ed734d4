package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// layerMetrics derives the per-layer metrics of a traced run. Counters that
// tracing would disturb (allocations, GC, tree stats) come from the plain
// window; everything timed comes from the traced window's spans.
func layerMetrics(name string, cl *cluster, plain, tw windowStats, spans []span) ([]metric, error) {
	r := analyze(spans)
	if r.ops == 0 {
		return nil, errors.New("no op spans recorded")
	}
	path := filepath.Join(workDir, "spans-"+name+".csv")
	if err := writeSpans(path, spans, r.parent); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	fmt.Printf("# %d spans written to %s\n", len(spans), path)
	if r.sumErr != 0 {
		return nil, fmt.Errorf("an op's per-layer self times miss its span by %d ns", r.sumErr)
	}

	frac := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	ops, calls, handlers := float64(r.ops), float64(r.calls), float64(r.handlers)
	written := float64(tw.written)
	keys := float64(tw.keys)
	plainOps := float64(plain.attempted)
	var stored int64
	for _, n := range cl.nodes {
		s, err := cl.proxies[0].sc.Stats(n)
		if err != nil {
			return nil, fmt.Errorf("memnode %d stats: %w", n, err)
		}
		stored += s.Bytes
	}
	var wire, ckpts int64
	for _, l := range cl.lns {
		wire += l.bytes.Load()
	}
	for _, f := range cl.fss {
		ckpts += f.checkpoints.Load()
	}
	var syncTime time.Duration
	for _, d := range r.syncDurs {
		syncTime += d
	}
	tree := plain.tree
	ms := []metric{
		{name: "core.self_us_per_op", unit: "us", value: float64(r.parts[layerCore]) / 1e3 / ops},
		{name: "core.wall_frac", unit: "frac", value: frac(float64(r.parts[layerCore]), float64(r.opTime))},
		{name: "core.calls_per_op", unit: "count", value: calls / ops},
		{name: "core.commit_frac", unit: "frac", value: frac(float64(tree.Ops), float64(tree.Ops+tree.Retries))},
		{name: "core.cache_hit_frac", unit: "frac", value: frac(float64(tree.CacheHits), float64(tree.CacheHits+tree.CacheMiss))},
		{name: "core.cow_per_put", unit: "count", value: frac(float64(tree.CopyOnWr), float64(plain.written))},
		{name: "core.snapshot_frac", unit: "frac", value: frac(float64(r.snapshotTime), float64(r.scanTime)),
			note: "share of scan-op time in SCS.Create"},

		{name: "runtime.allocs_per_op", unit: "count", value: float64(plain.mallocs) / plainOps},
		{name: "runtime.alloc_bytes_per_op", unit: "B", value: float64(plain.allocB) / plainOps},
		{name: "runtime.gc_per_s", unit: "1/s", value: float64(plain.numGC) / plain.elapsed.Seconds()},
		{name: "runtime.gc_cpu_frac", unit: "frac", value: plain.gcCPU / (plain.elapsed.Seconds() * float64(runtime.GOMAXPROCS(0)))},

		{name: "transport.self_us_per_call", unit: "us", value: float64(r.callSelf) / 1e3 / max(calls, 1),
			note: "netsim on -mem workloads, rpcnet (with codec) over TCP"},
		{name: "transport.wall_frac", unit: "frac", value: frac(float64(r.parts[layerTransport]), float64(r.opTime))},
		{name: "rpcnet.wire_bytes_per_key", unit: "B", value: frac(float64(wire), keys)},
		{name: "memnode.prepare_frac", unit: "frac", value: frac(float64(r.twoPC), float64(r.minitx))},

		{name: "memnode.busy_us_per_op", unit: "us", value: float64(r.handlerTime) / 1e3 / ops},
		{name: "memnode.self_us_per_call", unit: "us", value: float64(r.handlerSelf) / 1e3 / max(handlers, 1)},
		{name: "memnode.wall_frac", unit: "frac", value: frac(float64(r.parts[layerMemnode]), float64(r.opTime))},
		{name: "memnode.abort_frac", unit: "frac", value: frac(float64(r.aborts), float64(r.execResps))},
		{name: "memnode.bytes_per_user_byte", unit: "count", value: frac(float64(stored), float64(cl.userBytes))},

		{name: "wal.wall_frac", unit: "frac", value: frac(float64(r.parts[layerWAL]), float64(r.opTime))},
		{name: "wal.fsync_per_key", unit: "count", value: frac(float64(r.syncs), written)},
		{name: "wal.write_bytes_per_key", unit: "B", value: frac(float64(r.writeBytes), written)},
		{name: "wal.checkpoints_per_s", unit: "1/s", value: float64(ckpts) / tw.elapsed.Seconds()},

		{name: "trace.overhead_frac", unit: "frac", value: 1 - perSec(tw.keys, tw.elapsed)/perSec(plain.keys, plain.elapsed),
			note: fmt.Sprintf("keys/s traced %.0f vs plain %.0f", perSec(tw.keys, tw.elapsed), perSec(plain.keys, plain.elapsed))},
	}
	fmt.Printf("# %s per-layer (traced window: %d ops, %d calls, %d memnode requests):\n", name, r.ops, r.calls, r.handlers)
	transport := "netsim"
	if len(cl.lns) > 0 {
		transport = "rpcnet"
	}
	fmt.Printf("#   %s.self_us_per_call %.2f us (reported as transport.self_us_per_call)\n", transport, float64(r.callSelf)/1e3/max(calls, 1))
	if r.scanTime > 0 {
		scans := tw.lat[kindScan].n
		fmt.Printf("#   core.snapshot_us %.1f us (mean SCS.Create span over %d scans)\n", float64(r.snapshotTime)/1e3/float64(max(scans, 1)), scans)
	}
	if r.syncs > 0 {
		p99 := latMetric("wal.fsync_p99_us", summarize(r.syncDurs), true, time.Microsecond)
		fmt.Printf("#   wal.fsync_us_per_key %.2f us; %s %.1f us (%s)\n", float64(syncTime)/1e3/written, p99.name, p99.value, p99.note)
	}
	return ms, nil
}

// printMeta prints the run's metadata as a JSON line starting with
// "# meta ".
func printMeta(name string, seed int64, w workload, dir string, window time.Duration) {
	cfg := treeConfig
	cfg.FillDefaults()
	meta := map[string]any{
		"workload":       name,
		"seed":           seed,
		"window_s":       window.Seconds(),
		"warmup_s":       warmup.Seconds(),
		"setup_runs":     setupRuns,
		"go":             runtime.Version(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"nproc":          runtime.NumCPU(),
		"cpu":            cpuModel(),
		"durability":     w.policy(),
		"data_dir_fs":    fsType(dir),
		"records":        records,
		"clients":        2,
		"closed_loop":    true,
		"node_size":      cfg.NodeSize,
		"proxy_cache":    cfg.CacheEntries,
		"dirty_traverse": cfg.DirtyTraversals,
	}
	b, _ := json.Marshal(meta)
	fmt.Printf("# meta %s\n", b)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	s := bufio.NewScanner(f)
	for s.Scan() {
		if k, v, ok := strings.Cut(s.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsType names the filesystem holding dir (the nearest existing ancestor).
func fsType(dir string) string {
	names := map[int64]string{
		0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs",
		0x58465342: "xfs", 0x9123683E: "btrfs", 0x6969: "nfs", 0x65735546: "fuse",
	}
	for d := dir; ; d = filepath.Dir(d) {
		var st syscall.Statfs_t
		if err := syscall.Statfs(d, &st); err == nil {
			if n, ok := names[int64(st.Type)]; ok {
				return n
			}
			return fmt.Sprintf("0x%x", st.Type)
		}
		if d == filepath.Dir(d) {
			return "unknown"
		}
	}
}
