package sinfonia

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"minuet/internal/wal"
	"minuet/internal/wire"
)

// Durable memnodes: a per-memnode write-ahead redo log (internal/wal) makes
// acknowledged minitransactions survive a whole-cluster restart — the gap
// that previously capped the system at cache/testbed use.
//
// Logging discipline (redo-only, group-committed):
//
//   - Single-phase minitransaction (execCommit): writes are applied to
//     memory and an APPLY record is appended under the memnode mutex (so
//     log order equals apply order), then the handler group-commits the
//     record before acknowledging. Reads and failed compares log nothing.
//   - Prepare: the staged transaction — writes, every locked address, and
//     the participant list — is appended as a STAGE record and
//     group-committed BEFORE the yes vote leaves the node, mirroring the
//     existing rule for backup mirroring: once the coordinator may decide
//     commit, this node must be able to keep its promise across a restart.
//   - Phase two: commit appends an APPLY record carrying the staged
//     transaction's id (replay re-applies the writes and clears the
//     stage); abort appends a RESOLVE record. Resolved outcomes replay
//     into the outcome log, so coordinator-recovery fencing survives
//     restarts too.
//
// Recovery (OpenDurable) loads the newest checkpoint and replays the
// records after it. Staged transactions are restored with their locks, so
// the recovery coordinator, promotion, and double-fault machinery operate
// on a restarted node exactly as on a live one.
//
// A durability failure (torn disk, full disk, injected fault) poisons the
// memnode fail-stop: the failing operation is not acknowledged and every
// later request is refused, exactly like a crash — which is what the
// crash-injection tests then simulate recovery from. Backup mirror state
// (replicas of other primaries) is deliberately not logged: mirrors are
// reconstructible through SeedReplica/RemirrorStaged, and logging them
// would double every write's log traffic.

// DurOptions configures a durable memnode.
type DurOptions struct {
	// NoFsync skips fsyncs: commits survive process crashes but not
	// machine crashes. See wal.Options.
	NoFsync bool
	// CheckpointEvery is the log-bytes threshold that triggers a background
	// checkpoint (snapshot of the memnode state + log truncation).
	// 0 means the 8 MiB default; negative disables auto-checkpointing.
	CheckpointEvery int64
}

// defaultCheckpointEvery is the auto-checkpoint threshold when unset.
const defaultCheckpointEvery = 8 << 20

// Record and checkpoint formats (the wal layer adds length + CRC). The
// record tag doubles as the record format: this build writes format 2
// (record tags 4-6, checkpoint format 2) and refuses format 1 (record tags
// 1-3, checkpoint format 1) rather than misreading it.
const (
	recApply   = 4 // committed writes (one-phase, or phase two of a stage)
	recStage   = 5 // prepared distributed transaction
	recResolve = 6 // phase-two outcome without writes (abort, empty commit)

	stateVersion = 2
)

var (
	errBadRecord = errors.New("sinfonia: corrupt wal record")
	errOldFormat = errors.New("sinfonia: wal written in format 1, which this build no longer reads; recover it with the release that wrote it")
)

// replayPreparedAt is the prepare timestamp given to restored stages: the
// clock restarts, so the recovery coordinator leaves them alone for a full
// MinAge — a still-alive coordinator gets first shot at phase two, and the
// sweep resolves them right after, same as for any crashed coordinator.
func replayPreparedAt() time.Time { return time.Now() }

// OpenDurable opens (or creates) a durable memnode over the given log
// filesystem, replaying any existing checkpoint and redo records. The
// returned memnode is ready to serve: committed items, staged prepares
// (with their locks), and resolved-transaction fencing are all restored.
func OpenDurable(id NodeID, fs wal.FS, opts DurOptions) (*Memnode, error) {
	if opts.CheckpointEvery == 0 {
		opts.CheckpointEvery = defaultCheckpointEvery
	}
	l, rec, err := wal.Open(fs, wal.Options{NoFsync: opts.NoFsync})
	if err != nil {
		return nil, fmt.Errorf("memnode %d: open wal: %w", id, err)
	}
	m := NewMemnode(id)
	// The node is not shared yet, but replay mutates mu-guarded state, so
	// hold the lock for the whole restore rather than carve out an
	// exception to the locking discipline.
	restore := func() error {
		m.mu.Lock()
		defer m.mu.Unlock()
		if rec.Checkpoint != nil {
			if err := m.decodeStateLocked(rec.Checkpoint); err != nil {
				return fmt.Errorf("memnode %d: checkpoint: %w", id, err)
			}
		}
		for i, p := range rec.Records {
			if err := m.replayRecordLocked(p); err != nil {
				return fmt.Errorf("memnode %d: replay record %d: %w", id, i, err)
			}
		}
		// Restored prepares hold their locks again, exactly as before the
		// restart: phase two (from the original coordinator retrying, or
		// the recovery coordinator's sweep) finds them where it left them.
		for txid, st := range m.staged {
			for _, a := range st.addrs {
				m.locked[a] = txid
			}
		}
		return nil
	}
	if err := restore(); err != nil {
		l.Close()
		return nil, err
	}
	m.wal = l
	m.durOpts = opts
	return m, nil
}

// Durable reports whether this memnode has a write-ahead log.
func (m *Memnode) Durable() bool { return m.wal != nil }

// WALStats returns the underlying log's counters (zero Stats when
// volatile).
func (m *Memnode) WALStats() wal.Stats {
	if m.wal == nil {
		return wal.Stats{}
	}
	return m.wal.Stats()
}

// Close releases the memnode's log, syncing it first. Any in-flight
// background checkpoint is waited out so it cannot race the log teardown.
// Volatile memnodes need no Close.
func (m *Memnode) Close() error {
	if m.wal == nil {
		return nil
	}
	m.bg.Wait()
	return m.wal.Close()
}

// CheckpointNow snapshots the memnode's durable state and truncates the
// log. Tests and operators call it directly; the commit path triggers it
// automatically past DurOptions.CheckpointEvery.
func (m *Memnode) CheckpointNow() error {
	if m.wal == nil {
		return nil
	}
	m.mu.Lock()
	if m.failed {
		m.mu.Unlock()
		return fmt.Errorf("memnode %d: durability failed", m.id)
	}
	state := m.encodeStateLocked()
	// Rotation happens under the memnode mutex: no record can land between
	// the state snapshot and the cut, so checkpoint+tail replay is exact.
	cut, err := m.wal.BeginCheckpoint()
	if err != nil {
		m.failed = true
		m.mu.Unlock()
		return err
	}
	m.mu.Unlock()
	return m.wal.FinishCheckpoint(cut, state)
}

// maybeCheckpoint starts a background checkpoint when enough log has
// accumulated. Must be called without m.mu held.
func (m *Memnode) maybeCheckpoint() {
	if m.wal == nil || m.durOpts.CheckpointEvery <= 0 {
		return
	}
	if m.wal.SinceCheckpoint() < m.durOpts.CheckpointEvery {
		return
	}
	if !m.ckptBusy.CompareAndSwap(false, true) {
		return
	}
	m.bg.Add(1)
	go func() {
		defer m.bg.Done()
		defer m.ckptBusy.Store(false)
		// A checkpoint failure poisons the log; the next commit surfaces
		// it as fail-stop. Nothing to do here.
		_ = m.CheckpointNow()
	}()
}

// checkTxnSize refuses a minitransaction whose redo record might not fit in
// a wal frame (wal.MaxRecordLen) — checked up front, before any state
// mutates, so an oversized request gets a clean error instead of poisoning
// a healthy node when the post-apply append fails. The bound conservatively
// over-counts the encoding: per-write overhead is at most 20 bytes (addr,
// version and length in APPLY; node, addr and length in STAGE) and the
// fixed part of a record at most 26.
func (m *Memnode) checkTxnSize(writes []WriteItem, nAddrs, nParticipants int) error {
	if m.wal == nil {
		return nil
	}
	bound := int64(64) + 8*int64(nAddrs) + 4*int64(nParticipants)
	for i := range writes {
		bound += 24 + int64(len(writes[i].Data))
	}
	if bound > wal.MaxRecordLen {
		return fmt.Errorf("memnode %d: minitransaction too large for a wal record (max %d bytes)", m.id, int64(wal.MaxRecordLen))
	}
	return nil
}

// walAppendLocked encodes and appends a record under m.mu, poisoning the node on
// failure. Returns 0 when the node is volatile.
func (m *Memnode) walAppendLocked(payload []byte) (uint64, error) {
	if m.wal == nil {
		return 0, nil
	}
	lsn, err := m.wal.Append(payload)
	if err != nil {
		m.failed = true
		return 0, fmt.Errorf("memnode %d: wal append: %w", m.id, err)
	}
	return lsn, nil
}

// walCommit group-commits lsn (without m.mu held), poisoning the node on
// failure. lsn 0 (nothing logged) is a no-op.
func (m *Memnode) walCommit(lsn uint64) error {
	if lsn == 0 {
		return nil
	}
	if err := m.wal.Commit(lsn); err != nil {
		m.mu.Lock()
		m.failed = true
		m.mu.Unlock()
		return fmt.Errorf("memnode %d: wal commit: %w", m.id, err)
	}
	return nil
}

// ---- record encoding ----

// Each record starts with its tag byte and is built from the message
// codec's list helpers (codec.go): an APPLY record carries a
// ReplicaApplyReq, a STAGE record the same writes, lock set, and
// participants a PrepareReq does. Records are sized exactly before they
// are built. Replay decodes with aliasing reads, so it copies the bytes it
// keeps: the log's recovered records point into whole-segment buffers.

// encodeApplyRecord builds an APPLY record: committed writes with the exact
// versions the primary assigned (replay restores them verbatim, keeping
// version-based OCC compares valid across restarts). staged marks phase-two
// commits, whose replay also clears the stage named by rep.Txid and fences
// the outcome.
func encodeApplyRecord(staged bool, rep *ReplicaApplyReq) []byte {
	b := wire.AppendTo(make([]byte, 0, 1+1+sizeReplicaApplyReq(rep)))
	b.U8(recApply)
	b.Bool(staged)
	return appendReplicaApplyReq(b.Bytes(), rep)
}

func decodeApplyRecord(r *wire.Reader) (staged bool, rep *ReplicaApplyReq) {
	_ = r.U8() // record tag; the dispatcher switched on it already
	staged = r.Bool()
	return staged, decodeReplicaApplyReq(r)
}

// encodeStageRecord builds a STAGE record for a prepared transaction: its
// writes, its full locked address set (compares and reads lock too — the
// writes alone would under-lock after replay), and the participant list
// coordinator recovery needs.
func encodeStageRecord(txid uint64, st *staged) []byte {
	b := wire.AppendTo(make([]byte, 0, 1+sizeStaged(st)))
	b.U8(recStage)
	appendStaged(&b, txid, st)
	return b.Bytes()
}

func decodeStageRecord(r *wire.Reader) (uint64, *staged) {
	_ = r.U8() // record tag
	return decodeStaged(r)
}

// sizeStaged, appendStaged and decodeStaged encode one staged transaction,
// in STAGE records and in checkpoints alike.
func sizeStaged(st *staged) int {
	return 8 + sizeAddrs(st.addrs) + sizeNodeIDs(st.participants) + sizeWrites(st.writes)
}

func appendStaged(b *wire.Buffer, txid uint64, st *staged) {
	b.U64(txid)
	appendAddrs(b, st.addrs)
	appendNodeIDs(b, st.participants)
	appendWrites(b, st.writes)
}

func decodeStaged(r *wire.Reader) (uint64, *staged) {
	txid := r.U64()
	st := &staged{preparedAt: replayPreparedAt()}
	st.addrs = decodeAddrs(r)
	st.participants = decodeNodeIDs(r)
	st.writes = decodeWrites(r)
	return txid, st
}

// encodeResolveRecord builds a RESOLVE record: a phase-two outcome that
// carries no writes (an abort, or a commit whose transaction staged nothing
// to write here).
func encodeResolveRecord(txid uint64, aborted bool) []byte {
	b := wire.AppendTo(make([]byte, 0, 1+8+1))
	b.U8(recResolve)
	b.U64(txid)
	b.Bool(aborted)
	return b.Bytes()
}

func decodeResolveRecord(r *wire.Reader) (txid uint64, aborted bool) {
	_ = r.U8() // record tag
	txid = r.U64()
	aborted = r.Bool()
	return txid, aborted
}

// cloneWriteData gives decoded writes their own copies of their data.
func cloneWriteData(ws []WriteItem) {
	for i := range ws {
		ws[i].Data = bytes.Clone(ws[i].Data)
	}
}

// replayRecordLocked applies one redo record to a recovering memnode. Replay is
// idempotent (versions guard items), so re-replaying a suffix after an
// interrupted recovery converges. Decoding is delegated to the decode*
// twins of the encode* functions above, so the wiresym analyzer checks the
// two directions stay in step; this dispatcher only applies parsed records.
func (m *Memnode) replayRecordLocked(p []byte) error {
	if len(p) == 0 {
		return errBadRecord
	}
	r := wire.NewReader(p)
	switch p[0] {
	case recApply:
		staged, rep := decodeApplyRecord(r)
		if finish(r) != nil {
			return errBadRecord
		}
		for i, addr := range rep.Addrs {
			if cur := m.items[addr]; cur == nil || cur.version < rep.Versions[i] {
				m.items[addr] = &item{data: bytes.Clone(rep.Data[i]), version: rep.Versions[i]}
			}
		}
		if staged {
			delete(m.staged, rep.Txid)
			m.outcomes.record(rep.Txid, TxnCommitted)
		}
	case recStage:
		txid, st := decodeStageRecord(r)
		if finish(r) != nil {
			return errBadRecord
		}
		if _, resolved := m.outcomes.get(txid); resolved {
			return nil // resolved later in the log; never resurrect
		}
		cloneWriteData(st.writes)
		m.staged[txid] = st
	case recResolve:
		txid, aborted := decodeResolveRecord(r)
		if finish(r) != nil {
			return errBadRecord
		}
		if st, ok := m.staged[txid]; ok {
			m.releaseLocked(txid, st)
		}
		if aborted {
			m.outcomes.record(txid, TxnAborted)
		} else {
			m.outcomes.record(txid, TxnCommitted)
		}
	case 1, 2, 3: // format-1 APPLY, STAGE and RESOLVE
		return errOldFormat
	default:
		return errBadRecord
	}
	return nil
}

// sizeStateLocked is the exact length encodeStateLocked produces. Caller
// holds m.mu.
func (m *Memnode) sizeStateLocked() int {
	n := 1 + 4
	for _, it := range m.items {
		n += 8 + 8 + 4 + len(it.data)
	}
	n += 4
	for _, st := range m.staged {
		n += sizeStaged(st)
	}
	return n + 4 + (8+1)*len(m.outcomes.order)
}

// encodeStateLocked serializes the memnode's durable state for a checkpoint:
// items, staged prepares, and the resolved-outcome log. Caller holds m.mu.
func (m *Memnode) encodeStateLocked() []byte {
	b := wire.AppendTo(make([]byte, 0, m.sizeStateLocked()))
	b.U8(stateVersion)
	b.U32(uint32(len(m.items)))
	for a, it := range m.items {
		b.U64(uint64(a))
		b.U64(it.version)
		b.Bytes32(it.data)
	}
	b.U32(uint32(len(m.staged)))
	for txid, st := range m.staged {
		appendStaged(&b, txid, st)
	}
	b.U32(uint32(len(m.outcomes.order)))
	for _, txid := range m.outcomes.order {
		b.U64(txid)
		b.U8(m.outcomes.m[txid])
	}
	return b.Bytes()
}

// decodeStateLocked loads a checkpoint into a fresh memnode, copying the
// bytes it keeps out of p.
func (m *Memnode) decodeStateLocked(p []byte) error {
	r := wire.NewReader(p)
	v := r.U8()
	if v == 1 {
		return fmt.Errorf("checkpoint: %w", errOldFormat)
	}
	if v != stateVersion {
		return errBadRecord
	}
	nItems := r.Count(8 + 8 + 4)
	for i := 0; i < nItems; i++ {
		addr := Addr(r.U64())
		ver := r.U64()
		data := r.Slice32()
		m.items[addr] = &item{data: bytes.Clone(data), version: ver}
	}
	nStaged := r.Count(8 + 4 + 4 + 4) // txid + three list counts
	for i := 0; i < nStaged; i++ {
		txid, st := decodeStaged(r)
		cloneWriteData(st.writes)
		m.staged[txid] = st
	}
	nOut := r.Count(8 + 1)
	for i := 0; i < nOut; i++ {
		txid := r.U64()
		status := r.U8()
		m.outcomes.record(txid, status)
	}
	if finish(r) != nil {
		return errBadRecord
	}
	return nil
}
