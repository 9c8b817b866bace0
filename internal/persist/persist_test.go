package persist

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
)

func TestRecordRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var buf []byte
	var want []Record
	for seq := uint64(1); seq <= 200; seq++ {
		n := rng.Intn(40)
		keys := make([]int, 0, n)
		k := rng.Intn(100) - 50
		for i := 0; i < n; i++ {
			keys = append(keys, k)
			k += 1 + rng.Intn(1000)
		}
		r := Record{Seq: seq, Kind: Kind(1 + rng.Intn(3)), Keys: keys}
		buf = AppendRecord(buf, r)
		want = append(want, r)
	}
	got, off, err := DecodeAll(buf)
	if err != nil || off != len(buf) {
		t.Fatalf("DecodeAll: off=%d/%d err=%v", off, len(buf), err)
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Seq != want[i].Seq || got[i].Kind != want[i].Kind || !sameKeys(got[i].Keys, want[i].Keys) {
			t.Fatalf("record %d: got %+v want %+v", i, got[i], want[i])
		}
	}
}

func sameKeys(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestDecodeTornTail(t *testing.T) {
	var buf []byte
	buf = AppendRecord(buf, Record{Seq: 1, Kind: KindUnion, Keys: []int{1, 2, 3}})
	whole := len(buf)
	buf = AppendRecord(buf, Record{Seq: 2, Kind: KindDifference, Keys: []int{5}})
	for cut := whole + 1; cut < len(buf); cut++ {
		recs, off, err := DecodeAll(buf[:cut])
		if len(recs) != 1 || off != whole {
			t.Fatalf("cut=%d: got %d records, off=%d, want 1 record at off=%d", cut, len(recs), off, whole)
		}
		if !errors.Is(err, ErrTornTail) {
			t.Fatalf("cut=%d: err=%v, want ErrTornTail", cut, err)
		}
	}
}

func TestDecodeCorruptPayload(t *testing.T) {
	var buf []byte
	buf = AppendRecord(buf, Record{Seq: 7, Kind: KindIntersect, Keys: []int{10, 20}})
	for i := recordHeader; i < len(buf); i++ {
		bad := append([]byte(nil), buf...)
		bad[i] ^= 0xff
		_, _, err := DecodeRecord(bad)
		if err == nil {
			t.Fatalf("flip byte %d: decode accepted corrupt record", i)
		}
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	keys := []int{-5, 0, 3, 99, 100}
	if err := writeSnapshot(dir, 42, keys); err != nil {
		t.Fatal(err)
	}
	seq, got, err := loadLatestSnapshot(dir)
	if err != nil || seq != 42 || !sameKeys(got, keys) {
		t.Fatalf("load: seq=%d keys=%v err=%v", seq, got, err)
	}
	// Newer snapshot wins; pruning drops the old one.
	if err := writeSnapshot(dir, 50, []int{1}); err != nil {
		t.Fatal(err)
	}
	pruneSnapshots(dir, 50)
	seq, got, err = loadLatestSnapshot(dir)
	if err != nil || seq != 50 || !sameKeys(got, []int{1}) {
		t.Fatalf("after prune: seq=%d keys=%v err=%v", seq, got, err)
	}
	if _, err := os.Stat(filepath.Join(dir, snapName(42))); !os.IsNotExist(err) {
		t.Fatalf("old snapshot not pruned: %v", err)
	}
}

func TestStoreAppendRecover(t *testing.T) {
	for _, policy := range []FsyncPolicy{FsyncBatch, FsyncNever, FsyncAlways} {
		t.Run(policy.String(), func(t *testing.T) {
			dir := t.TempDir()
			st, rec, err := OpenShard(dir, Options{Policy: policy})
			if err != nil {
				t.Fatal(err)
			}
			if rec.LastSeq != 0 || len(rec.Records) != 0 || rec.Keys != nil {
				t.Fatalf("fresh dir recovery: %+v", rec)
			}
			var wg sync.WaitGroup
			for seq := uint64(1); seq <= 20; seq++ {
				wg.Add(1)
				if err := st.Append(Record{Seq: seq, Kind: KindUnion, Keys: []int{int(seq)}}, wg.Done); err != nil {
					t.Fatal(err)
				}
			}
			wg.Wait()
			if got := st.Stats().DurableSeq; got != 20 {
				t.Fatalf("durable seq %d after all acks, want 20", got)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}

			st2, rec2, err := OpenShard(dir, Options{Policy: policy})
			if err != nil {
				t.Fatal(err)
			}
			defer st2.Close()
			if rec2.Torn {
				t.Fatal("clean close recovered as torn")
			}
			if rec2.LastSeq != 20 || len(rec2.Records) != 20 {
				t.Fatalf("recovery: lastSeq=%d records=%d", rec2.LastSeq, len(rec2.Records))
			}
			for i, r := range rec2.Records {
				if r.Seq != uint64(i+1) || !sameKeys(r.Keys, []int{i + 1}) {
					t.Fatalf("record %d: %+v", i, r)
				}
			}
		})
	}
}

func TestSnapshotTruncatesLog(t *testing.T) {
	dir := t.TempDir()
	st, _, err := OpenShard(dir, Options{Policy: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 6; seq++ {
		if err := st.Append(Record{Seq: seq, Kind: KindUnion, Keys: []int{int(seq)}}, nil); err != nil {
			t.Fatal(err)
		}
	}
	// Snapshot at 6 covers the whole first segment: rotation must delete
	// it and appends continue in a fresh one.
	if err := st.Snapshot(6, []int{1, 2, 3, 4, 5, 6}); err != nil {
		t.Fatal(err)
	}
	for seq := uint64(7); seq <= 12; seq++ {
		if err := st.Append(Record{Seq: seq, Kind: KindUnion, Keys: []int{int(seq)}}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, rec, err := OpenShard(dir, Options{Policy: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if rec.SnapshotSeq != 6 || !sameKeys(rec.Keys, []int{1, 2, 3, 4, 5, 6}) {
		t.Fatalf("snapshot: seq=%d keys=%v", rec.SnapshotSeq, rec.Keys)
	}
	if len(rec.Records) != 6 || rec.Records[0].Seq != 7 || rec.LastSeq != 12 {
		t.Fatalf("suffix: %d records, first=%d, lastSeq=%d", len(rec.Records), rec.Records[0].Seq, rec.LastSeq)
	}
	// The pre-snapshot segment is gone: total bytes on disk cover only
	// the suffix, so the WAL files must not contain seq 1's segment.
	if _, err := os.Stat(filepath.Join(dir, segName(1))); !os.IsNotExist(err) {
		t.Fatalf("covered segment not deleted: %v", err)
	}
}

func TestRotateKeepsMixedSegment(t *testing.T) {
	dir := t.TempDir()
	st, _, err := OpenShard(dir, Options{Policy: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 10; seq++ {
		if err := st.Append(Record{Seq: seq, Kind: KindUnion, Keys: []int{int(seq)}}, nil); err != nil {
			t.Fatal(err)
		}
	}
	// Covering seq 4 only: the single segment holds 1..10, mixing
	// covered and uncovered records, so it must survive.
	if err := st.Snapshot(4, []int{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec, err := OpenShard(dir, Options{Policy: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != 6 || rec.Records[0].Seq != 5 {
		t.Fatalf("suffix after partial cover: %d records, first=%d", len(rec.Records), rec.Records[0].Seq)
	}
}

func TestAppendNonDenseRejected(t *testing.T) {
	dir := t.TempDir()
	st, _, err := OpenShard(dir, Options{Policy: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Append(Record{Seq: 1, Kind: KindUnion, Keys: []int{1}}, nil); err != nil {
		t.Fatal(err)
	}
	if err := st.Append(Record{Seq: 3, Kind: KindUnion, Keys: []int{3}}, nil); err == nil {
		t.Fatal("gap append accepted")
	}
}

// TestFailedWriteIsNotAcked swaps the segment's handle for a read-only
// one, so the next flush's Write fails. The failed record's callback
// must find Err() set, AckedSeq must stay at the last good record, the
// store must refuse further records and snapshots, and recovery must
// find exactly the acked prefix.
func TestFailedWriteIsNotAcked(t *testing.T) {
	for _, policy := range []FsyncPolicy{FsyncBatch, FsyncNever, FsyncAlways} {
		t.Run(policy.String(), func(t *testing.T) {
			dir := t.TempDir()
			st, _, err := OpenShard(dir, Options{Policy: policy})
			if err != nil {
				t.Fatal(err)
			}
			durable := make(chan error, 1)
			onDurable := func() { durable <- st.Err() }
			if err := st.Append(Record{Seq: 1, Kind: KindUnion, Keys: []int{1}}, onDurable); err != nil {
				t.Fatal(err)
			}
			if err := <-durable; err != nil {
				t.Fatalf("first record: %v", err)
			}

			w := st.wal
			w.ioMu.Lock()
			w.mu.Lock()
			ro, err := os.Open(w.segs[len(w.segs)-1].path)
			if err != nil {
				t.Fatal(err)
			}
			w.f.Close()
			w.f = ro
			w.mu.Unlock()
			w.ioMu.Unlock()

			if err := st.Append(Record{Seq: 2, Kind: KindUnion, Keys: []int{2}}, onDurable); err != nil {
				t.Fatal(err)
			}
			if err := <-durable; err == nil {
				t.Fatal("the failed record's callback found no error: a lost record would be acked")
			}
			if got := w.AckedSeq(); got != 1 {
				t.Fatalf("AckedSeq = %d after a failed write, want 1", got)
			}
			if err := st.Append(Record{Seq: 3, Kind: KindUnion, Keys: []int{3}}, nil); err == nil {
				t.Fatal("a failed WAL accepted a new record")
			}
			if err := st.Snapshot(1, []int{1}); err == nil {
				t.Fatal("a failed store took a snapshot")
			}
			if snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*")); len(snaps) != 0 {
				t.Fatalf("a failed store wrote snapshot files %v", snaps)
			}
			if err := st.Close(); err == nil {
				t.Fatal("Close of a failed WAL reported no error")
			}

			st2, rec, err := OpenShard(dir, Options{Policy: policy})
			if err != nil {
				t.Fatal(err)
			}
			defer st2.Close()
			if rec.LastSeq != 1 || len(rec.Records) != 1 {
				t.Fatalf("recovery after the failure: lastSeq=%d records=%d, want the acked prefix (1, 1)", rec.LastSeq, len(rec.Records))
			}
		})
	}
}

func TestOpenGapBetweenSnapshotAndLog(t *testing.T) {
	dir := t.TempDir()
	st, _, err := OpenShard(dir, Options{Policy: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 8; seq++ {
		if err := st.Append(Record{Seq: seq, Kind: KindUnion, Keys: []int{int(seq)}}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Snapshot(8, []int{1, 2, 3, 4, 5, 6, 7, 8}); err != nil {
		t.Fatal(err)
	}
	for seq := uint64(9); seq <= 12; seq++ {
		if err := st.Append(Record{Seq: seq, Kind: KindUnion, Keys: []int{int(seq)}}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// Delete the snapshot: the log resumes at 9 but nothing covers 1..8.
	if err := os.Remove(filepath.Join(dir, snapName(8))); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenShard(dir, Options{Policy: FsyncNever}); err == nil {
		t.Fatal("open accepted a snapshot/log gap")
	}
}

func TestStatsShape(t *testing.T) {
	dir := t.TempDir()
	st, _, err := OpenShard(dir, Options{Policy: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var wg sync.WaitGroup
	wg.Add(1)
	if err := st.Append(Record{Seq: 1, Kind: KindUnion, Keys: []int{1, 2}}, wg.Done); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	got := st.Stats()
	if got.Records != 1 || got.BytesLogged == 0 || got.Syncs == 0 || got.DurableSeq != 1 {
		t.Fatalf("stats: %+v", got)
	}
	want := reflect.TypeOf(Stats{})
	if want.NumField() != 6 {
		t.Fatalf("Stats has %d fields; update this test with the new field's assertions", want.NumField())
	}
}

func TestParsePolicy(t *testing.T) {
	cases := []struct {
		in   string
		want FsyncPolicy
		ok   bool
	}{
		{"", FsyncBatch, true},
		{"batch", FsyncBatch, true},
		{"never", FsyncNever, true},
		{"always", FsyncAlways, true},
		{"sometimes", 0, false},
	}
	for _, c := range cases {
		got, ok := ParsePolicy(c.in)
		if ok != c.ok || (ok && got != c.want) {
			t.Fatalf("ParsePolicy(%q) = %v, %v", c.in, got, ok)
		}
	}
}
