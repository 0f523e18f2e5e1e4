package mvcc

import (
	"testing"

	"pushpull/internal/adt"
	"pushpull/internal/spec"
)

// put is the committed operation writing key := val under mode: a
// register write on the word substrates, a map put on the boosted ones.
func put(mode Mode, key uint64, val int64) spec.Op {
	if mode == ModeMap {
		return spec.Op{Obj: "ht", Method: adt.MMapPut, Args: []int64{int64(key), val}}
	}
	return spec.Op{Obj: "mem", Method: adt.MWrite, Args: []int64{int64(key), val}}
}

// remove is the committed map remove of key.
func remove(key uint64) spec.Op {
	return spec.Op{Obj: "ht", Method: adt.MMapRemove, Args: []int64{int64(key)}}
}

// obs is one observed read, as a Cut logs it.
func obs(key uint64, val int64, found bool) readObs {
	return readObs{key: key, val: val, found: found}
}

// TestSIAnomalyTable pins the isolation boundary the read-only class
// lives on. Classic write skew: x and y start at 50 under the
// constraint x+y >= 0; two concurrent transactions each read both
// keys at the same snapshot, see 100 total, and each withdraws 60
// from a different key. Their write sets are disjoint, so snapshot
// isolation admits both — the committed state violates the constraint
// (-10 + -10). That anomaly needs a write: a read-only transaction at
// ANY watermark observes exactly one committed prefix state and
// certifies against the full history, so no interleaving of its reads
// can witness a state off the committed chain.
func TestSIAnomalyTable(t *testing.T) {
	st := NewStore(ModeRegister, 8)
	sh := st.cert
	const x, y = 0, 1
	st.Commit(1, []spec.Op{put(ModeRegister, x, 50)})
	st.Commit(2, []spec.Op{put(ModeRegister, y, 50)})

	// Both RW transactions read {x, y} at watermark 2.
	snap := st.Snapshot()
	xv, _ := snap.Get(x)
	yv, _ := snap.Get(y)
	if xv+yv < 60 {
		t.Fatalf("setup broken: x+y = %d", xv+yv)
	}
	reads := []readObs{obs(x, xv, true), obs(y, yv, true)}
	// Each transaction's read set certifies at the shared snapshot —
	// snapshot isolation sees nothing wrong with either...
	if err := sh.certify(snap.Watermark(), reads); err != nil {
		t.Fatalf("txn A reads failed SI certification: %v", err)
	}
	if err := sh.certify(snap.Watermark(), reads); err != nil {
		t.Fatalf("txn B reads failed SI certification: %v", err)
	}
	snap.Close()
	// ...so both commit, with disjoint write sets.
	st.Commit(3, []spec.Op{put(ModeRegister, x, xv-60)})
	st.Commit(4, []spec.Op{put(ModeRegister, y, yv-60)})
	final := st.Snapshot()
	defer final.Close()
	fx, _ := final.Get(x)
	fy, _ := final.Get(y)
	if fx+fy >= 0 {
		t.Fatalf("expected the write-skew anomaly to materialize, got x+y = %d", fx+fy)
	}

	// The read-only class cannot witness any such anomaly: at every
	// watermark along the history, the observable {x, y} state is
	// exactly one committed-prefix state, and certification agrees.
	wantStates := map[uint64][2]int64{
		0: {0, 0}, 1: {50, 0}, 2: {50, 50}, 3: {-10, 50}, 4: {-10, -10},
	}
	for w := uint64(0); w <= 4; w++ {
		gx, _ := sh.lookup(x, w)
		gy, _ := sh.lookup(y, w)
		want := wantStates[w]
		if gx != want[0] || gy != want[1] {
			t.Fatalf("watermark %d: read-only view (%d,%d), want committed prefix state %v", w, gx, gy, want)
		}
		if err := sh.certify(w, []readObs{obs(x, gx, true), obs(y, gy, true)}); err != nil {
			t.Fatalf("watermark %d: consistent prefix read failed certification: %v", w, err)
		}
		// A torn read — x from one prefix, y from another — must be
		// rejected: that is the anomaly shape the RO class excludes.
		if w >= 2 {
			torn := []readObs{
				obs(x, wantStates[w][0], true),
				obs(y, wantStates[w-2][1], true),
			}
			if torn[1].val != wantStates[w][1] {
				if err := sh.certify(w, torn); err == nil {
					t.Fatalf("watermark %d: torn read %v passed certification", w, torn)
				}
			}
		}
	}
}

// lookup exposes lookupLocked for the anomaly table.
func (sh *shadow) lookup(key, w uint64) (int64, bool) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.lookupLocked(key, w)
}

// TestGCBoundRespectsPins pins the truncation contract: while a
// snapshot holds a watermark, every version it can see survives GC;
// once the pin closes, chains truncate to the newest version at or
// below the new bound.
func TestGCBoundRespectsPins(t *testing.T) {
	st := NewStore(ModeRegister, 4)
	const key = 2
	// Build a long chain on one key, pinning early.
	apply2 := func(seq uint64, val int64) {
		st.Commit(seq, []spec.Op{put(ModeRegister, key, val)})
	}
	apply2(1, 100)
	snap := st.Snapshot() // pins watermark 1
	for seq := uint64(2); seq <= 2*gcEvery; seq++ {
		apply2(seq, int64(100+seq))
	}
	// The debt-triggered sweeps have run by now (2*gcEvery applies),
	// but the pin holds the bound at 1: the pinned version survives.
	if got, _ := snap.Get(key); got != 100 {
		t.Fatalf("pinned snapshot read %d, want 100 (GC ate a pinned version)", got)
	}
	stats := st.StoreStats()
	if stats.Versions < 2 {
		t.Fatalf("pin not respected: only %d versions survive", stats.Versions)
	}
	snap.Close()
	st.TruncateNow()
	stats = st.StoreStats()
	if stats.Versions != 1 {
		t.Fatalf("after unpin + GC: %d versions, want exactly the newest", stats.Versions)
	}
	if stats.Truncated == 0 {
		t.Fatal("truncation counter never moved")
	}
	final := st.Snapshot()
	defer final.Close()
	if got, _ := final.Get(key); got != int64(100+2*gcEvery) {
		t.Fatalf("newest version lost: read %d", got)
	}
}

// TestGCTrimsShadowWindow pins the certifier side of the bound: the
// store's GC sweep trims the certifier window to the same bound, so a
// watermark below it is refused (pin outlived GC) while live
// watermarks stay certifiable.
func TestGCTrimsShadowWindow(t *testing.T) {
	st := NewStore(ModeRegister, 4)
	sh := st.cert
	for seq := uint64(1); seq <= gcEvery+8; seq++ {
		st.Commit(seq, []spec.Op{put(ModeRegister, 1, int64(seq))})
	}
	st.TruncateNow()
	// The bound is the watermark (no pins): old watermarks are gone.
	if err := sh.certify(1, []readObs{obs(1, 1, true)}); err == nil {
		t.Fatal("certification at a truncated watermark must fail")
	}
	// The current watermark still certifies.
	w := st.StoreStats().Watermark
	if err := sh.certify(w, []readObs{obs(1, int64(w), true)}); err != nil {
		t.Fatalf("live watermark refused: %v", err)
	}
}

// TestMapModeTombstones pins map-substrate semantics through the
// version chains: a remove is a tombstone version (found=false), and
// GC deletes chains whose sole surviving version is a tombstone.
func TestMapModeTombstones(t *testing.T) {
	st := NewStore(ModeMap, 0)
	st.Commit(1, []spec.Op{put(ModeMap, 7, 42)})
	st.Commit(2, []spec.Op{remove(7)})
	snap := st.Snapshot()
	if _, found := snap.Get(7); found {
		t.Fatal("removed key still found at the remove's watermark")
	}
	snap.Close()
	if err := st.cert.certify(2, []readObs{obs(7, 0, false)}); err != nil {
		t.Fatalf("tombstone read failed certification: %v", err)
	}
	st.TruncateNow()
	if stats := st.StoreStats(); stats.Chains != 0 {
		t.Fatalf("lone-tombstone chain survived GC: %d chains", stats.Chains)
	}
}

// FuzzSnapshotVisibility drives a random committed history through
// both substrate modes and checks that every pinned snapshot agrees
// with a reference fold of the prefix at its watermark, and that the
// observed reads always certify. Bytes decode as (key, val, present,
// pin?) commit tuples; register mode forces present writes (registers
// have no remove), map mode uses the presence bit.
func FuzzSnapshotVisibility(f *testing.F) {
	f.Add([]byte{1, 5, 1, 0, 2, 9, 0, 1, 1, 3, 1, 1})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{9, 200, 1, 1, 9, 201, 1, 1, 9, 202, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, mode := range []Mode{ModeRegister, ModeMap} {
			fuzzOneMode(t, mode, data)
		}
	})
}

func fuzzOneMode(t *testing.T, mode Mode, data []byte) {
	const keys = 8
	st := NewStore(mode, keys)

	type image struct {
		val   int64
		found bool
	}
	type pinned struct {
		snap *Snapshot
		ref  map[uint64]image // committed image at pin time
	}
	var pins []pinned
	ref := make(map[uint64]image)
	seq := uint64(0)
	for i := 0; i+4 <= len(data); i += 4 {
		key := uint64(data[i]) % keys
		val := int64(data[i+1])
		present := mode == ModeRegister || data[i+2]%2 == 1
		seq++
		op := put(mode, key, val)
		if !present {
			op = remove(key)
		}
		st.Commit(seq, []spec.Op{op})
		if present {
			ref[key] = image{val: val, found: true}
		} else {
			delete(ref, key)
		}
		if data[i+3]%2 == 1 {
			cp := make(map[uint64]image, len(ref))
			for k, v := range ref {
				cp[k] = v
			}
			pins = append(pins, pinned{snap: st.Snapshot(), ref: cp})
		}
	}
	for _, p := range pins {
		var reads []readObs
		for k := uint64(0); k < keys; k++ {
			got, found := p.snap.Get(k)
			want := p.ref[k]
			if mode == ModeRegister {
				// Registers always exist; unwritten slots read zero.
				want.found = true
			}
			if found != want.found || (found && got != want.val) {
				t.Fatalf("mode %d snapshot@%d key %d: got (%d, found=%v), want (%d, found=%v)",
					mode, p.snap.Watermark(), k, got, found, want.val, want.found)
			}
			reads = append(reads, obs(k, got, found))
		}
		if err := st.cert.certify(p.snap.Watermark(), reads); err != nil {
			t.Fatalf("mode %d snapshot@%d: %v", mode, p.snap.Watermark(), err)
		}
		p.snap.Close()
	}
	st.TruncateNow()
	if st.StoreStats().SnapshotsOpen != 0 {
		t.Fatal("pins leaked")
	}
}
