package pipefut

import (
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"pipefut/internal/workload"
)

func TestSpawnAndRead(t *testing.T) {
	c := Spawn(func() int { return 6 * 7 })
	if c.Read() != 42 {
		t.Fatal("spawn result wrong")
	}
}

func TestSpawn2And3(t *testing.T) {
	a, b := Spawn2(func(x, y *Cell[int]) { y.Write(2); x.Write(1) })
	if a.Read() != 1 || b.Read() != 2 {
		t.Fatal("spawn2 wrong")
	}
	p, q, r := Spawn3(func(x, y, z *Cell[string]) {
		x.Write("a")
		y.Write("b")
		z.Write("c")
	})
	if p.Read()+q.Read()+r.Read() != "abc" {
		t.Fatal("spawn3 wrong")
	}
}

func TestNewCellDone(t *testing.T) {
	c := NewCell[int]()
	go c.Write(5)
	if c.Read() != 5 {
		t.Fatal("cell wrong")
	}
	if Done("x").Read() != "x" {
		t.Fatal("done wrong")
	}
}

func TestMeasure(t *testing.T) {
	costs := Measure(func(tc *Ctx) {
		tc.Step(1)
		c := Fork(tc, func(tc *Ctx) int { tc.Step(5); return 42 })
		if Touch(tc, c) != 42 {
			t.Error("touch value wrong")
		}
	})
	// 1 step + 1 fork + 5 body + 1 write + 1 touch = 9 work.
	if costs.Work != 9 {
		t.Fatalf("work = %d, want 9", costs.Work)
	}
	// Critical path: step(1) fork(2) body(3..7) write(8) touch(9).
	if costs.Depth != 9 {
		t.Fatalf("depth = %d, want 9", costs.Depth)
	}
	if !costs.Linear() {
		t.Fatal("must be linear")
	}
}

func TestMeasureWrite(t *testing.T) {
	costs := Measure(func(tc *Ctx) {
		a, b := Spawn2MCells(tc)
		_ = Touch(tc, a)
		_ = Touch(tc, b)
	})
	if costs.Work == 0 {
		t.Fatal("no work recorded")
	}
}

// Spawn2MCells is a small helper exercising Write on measured cells.
func Spawn2MCells(tc *Ctx) (*MCell[int], *MCell[int]) {
	c1 := Fork(tc, func(tc *Ctx) int { return 1 })
	c2 := Fork(tc, func(tc *Ctx) int { return 2 })
	return c1, c2
}

func setOf(keys []int) map[int]bool {
	m := map[int]bool{}
	for _, k := range keys {
		m[k] = true
	}
	return m
}

func TestSetBasics(t *testing.T) {
	s := NewSet(3, 1, 2, 3)
	if s.Len() != 3 {
		t.Fatalf("len = %d", s.Len())
	}
	if got := s.Keys(); !sort.IntsAreSorted(got) || len(got) != 3 {
		t.Fatalf("keys = %v", got)
	}
	if !s.Contains(2) || s.Contains(9) {
		t.Fatal("contains wrong")
	}
	s2 := s.Insert(9)
	if !s2.Contains(9) || s.Contains(9) {
		t.Fatal("insert must be persistent")
	}
	s3 := s2.Delete(1)
	if s3.Contains(1) || s3.Len() != 3 {
		t.Fatal("delete wrong")
	}
	s.Wait()
}

func TestSetOpsMatchMapOracleProperty(t *testing.T) {
	f := func(seed uint16, n8, m8, ov uint8) bool {
		n, m := int(n8%80)+1, int(m8%80)+1
		rng := workload.NewRNG(uint64(seed))
		ka, kb := workload.OverlappingKeySets(rng, n, m, float64(ov%4)/4)
		a, b := NewSet(ka...), NewSet(kb...)

		u := a.Union(b).Keys()
		d := a.Subtract(b).Keys()

		wantU := setOf(ka)
		for _, k := range kb {
			wantU[k] = true
		}
		wantD := map[int]bool{}
		inB := setOf(kb)
		for _, k := range ka {
			if !inB[k] {
				wantD[k] = true
			}
		}
		if len(u) != len(wantU) || len(d) != len(wantD) {
			return false
		}
		for _, k := range u {
			if !wantU[k] {
				return false
			}
		}
		for _, k := range d {
			if !wantD[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestSetIntersect(t *testing.T) {
	a := NewSet(1, 2, 3, 4, 5)
	b := NewSet(4, 5, 6, 7)
	got := a.Intersect(b).Keys()
	if len(got) != 2 || got[0] != 4 || got[1] != 5 {
		t.Fatalf("intersect = %v", got)
	}
	// (A \ B) ∪ (A ∩ B) = A.
	back := a.Subtract(b).Union(a.Intersect(b))
	if !back.Equal(a) {
		t.Fatal("set algebra identity failed")
	}
}

func TestSetEqualIgnoresConstruction(t *testing.T) {
	a := NewSet(1, 2, 3).Union(NewSet(4, 5))
	b := NewSet(5, 4, 3).Union(NewSet(1, 2))
	if !a.Equal(b) {
		t.Fatal("equal contents must compare equal")
	}
	if a.Equal(NewSet(1)) {
		t.Fatal("different sets compared equal")
	}
	if a.Equal(NewSet(1, 2, 3, 4, 6)) {
		t.Fatal("same-size different sets compared equal")
	}
}

func TestNewSetAsync(t *testing.T) {
	rng := workload.NewRNG(11)
	keys := workload.DistinctKeys(rng, 3000, 100000)
	async := NewSetAsync(keys...)
	// Queries work against the in-flight set.
	if !async.Contains(keys[0]) {
		t.Fatal("missing key during construction")
	}
	sync := NewSet(keys...)
	if !async.Equal(sync) {
		t.Fatal("async and sync construction differ")
	}
	if NewSetAsync().Len() != 0 {
		t.Fatal("empty async set wrong")
	}
}

func TestSetWithSpawnDepth(t *testing.T) {
	a := NewSet(1, 2, 3).WithSpawnDepth(0) // sequential
	b := NewSet(3, 4)
	if got := a.Union(b).Keys(); len(got) != 4 {
		t.Fatalf("keys = %v", got)
	}
}

func TestContainsOnInFlightSet(t *testing.T) {
	rng := workload.NewRNG(7)
	ka := workload.DistinctKeys(rng, 5000, 1<<20)
	kb := workload.DistinctKeys(rng, 5000, 1<<20)
	u := NewSet(ka...).Union(NewSet(kb...))
	// Query immediately — reads block only along the search path.
	if !u.Contains(ka[0]) || !u.Contains(kb[0]) {
		t.Fatal("contains on in-flight set wrong")
	}

	// Several goroutines at once build on u and query their results, all
	// on the one shared default scheduler.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v := u.Subtract(NewSetAsync(ka[g*100 : g*100+100]...))
			if v.Contains(ka[g*100]) || !v.Contains(ka[g*100+100]) {
				t.Error("concurrent subtract on the shared scheduler wrong")
			}
		}()
	}
	wg.Wait()
}

func TestSortProperty(t *testing.T) {
	f := func(seed uint16, n8 uint8) bool {
		n := int(n8 % 200)
		rng := workload.NewRNG(uint64(seed))
		xs := workload.DistinctKeys(rng, n, 4*n+4)
		got := Sort(xs)
		want := append([]int{}, xs...)
		sort.Ints(want)
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestSortDeduplicates(t *testing.T) {
	got := Sort([]int{3, 1, 3, 2, 2})
	want := []int{1, 2, 3}
	if len(got) != 3 {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v", got)
		}
	}
	if Sort(nil) != nil {
		t.Fatal("empty sort must be nil")
	}
}
