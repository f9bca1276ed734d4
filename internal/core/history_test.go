package core

import (
	"errors"
	"testing"
)

// buildLineage creates 1 → 2 → 3 (mainline) with k evolving along it, and
// a side branch 4 off version 2.
func buildLineage(t *testing.T) (*testEnv, map[string]uint64) {
	t.Helper()
	e := newEnv(t, 2, branchCfg(2))
	if err := e.bt.PutAt(1, key(0), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	b2, err := e.bt.CreateBranch(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.bt.PutAt(b2.Sid, key(0), []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if err := e.bt.PutAt(b2.Sid, key(1), []byte("appears")); err != nil {
		t.Fatal(err)
	}
	b3, err := e.bt.CreateBranch(b2.Sid) // mainline tip
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.bt.RemoveAt(b3.Sid, key(1)); err != nil {
		t.Fatal(err)
	}
	b4, err := e.bt.CreateBranch(b2.Sid) // side branch off 2
	if err != nil {
		t.Fatal(err)
	}
	if err := e.bt.PutAt(b4.Sid, key(0), []byte("side")); err != nil {
		t.Fatal(err)
	}
	return e, map[string]uint64{"b2": b2.Sid, "b3": b3.Sid, "b4": b4.Sid}
}

func TestKeyHistoryVertical(t *testing.T) {
	e, ids := buildLineage(t)
	hist, err := e.bt.KeyHistory(ids["b3"], key(0))
	if err != nil {
		t.Fatal(err)
	}
	// Root-first: 1=v1, 2=v2, 3=v2 (inherited).
	if len(hist) != 3 {
		t.Fatalf("history length %d: %+v", len(hist), hist)
	}
	wantSids := []uint64{1, ids["b2"], ids["b3"]}
	wantVals := []string{"v1", "v2", "v2"}
	for i, h := range hist {
		if h.Sid != wantSids[i] || !h.Present || string(h.Val) != wantVals[i] {
			t.Fatalf("history[%d] = %+v, want sid=%d val=%s", i, h, wantSids[i], wantVals[i])
		}
	}

	// A key that appears mid-history and is later deleted.
	hist, err = e.bt.KeyHistory(ids["b3"], key(1))
	if err != nil {
		t.Fatal(err)
	}
	if hist[0].Present || !hist[1].Present || hist[2].Present {
		t.Fatalf("appearance/disappearance wrong: %+v", hist)
	}
}

func TestKeyChangesFiltersNoOps(t *testing.T) {
	e, ids := buildLineage(t)
	changes, err := e.bt.KeyChanges(ids["b3"], key(0))
	if err != nil {
		t.Fatal(err)
	}
	// v1 at 1, v2 at 2; version 3 inherits v2 (no change).
	if len(changes) != 2 || string(changes[0].Val) != "v1" || string(changes[1].Val) != "v2" {
		t.Fatalf("changes: %+v", changes)
	}
	// Appearing-then-deleted key: two change points (appear at 2, vanish at 3).
	changes, err = e.bt.KeyChanges(ids["b3"], key(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(changes) != 2 || !changes[0].Present || changes[1].Present {
		t.Fatalf("appear/vanish changes: %+v", changes)
	}
}

func TestKeyAcrossTipsHorizontal(t *testing.T) {
	e, ids := buildLineage(t)
	// Tips descending from version 2: b3 (mainline) and b4 (side).
	vals, err := e.bt.KeyAcrossTips(ids["b2"], key(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 2 {
		t.Fatalf("tips: %+v", vals)
	}
	got := map[uint64]string{}
	for _, v := range vals {
		got[v.Sid] = string(v.Val)
	}
	if got[ids["b3"]] != "v2" || got[ids["b4"]] != "side" {
		t.Fatalf("horizontal values: %v", got)
	}
	// Scoped to the side branch only.
	vals, err = e.bt.KeyAcrossTips(ids["b4"], key(0))
	if err != nil || len(vals) != 1 || vals[0].Sid != ids["b4"] {
		t.Fatalf("scoped horizontal: %+v %v", vals, err)
	}
}

func TestHistoryRequiresBranching(t *testing.T) {
	e := newEnv(t, 1, smallCfg())
	if _, err := e.bt.KeyHistory(1, key(0)); !errors.Is(err, ErrNotBranching) {
		t.Fatalf("vertical query in linear mode: %v, want ErrNotBranching", err)
	}
	if _, err := e.bt.KeyAcrossTips(1, key(0)); !errors.Is(err, ErrNotBranching) {
		t.Fatalf("horizontal query in linear mode: %v, want ErrNotBranching", err)
	}
}
