package fpga

import (
	"testing"
	"testing/quick"
)

func pb(name string, x0, y0, x1, y1 int) Pblock {
	return Pblock{Name: name, X0: x0, Y0: y0, X1: x1, Y1: y1}
}

func TestPblockGeometry(t *testing.T) {
	p := pb("a", 1, 2, 3, 4)
	if p.Width() != 3 || p.Height() != 3 || p.CellCount() != 9 {
		t.Fatalf("geometry wrong: w=%d h=%d n=%d", p.Width(), p.Height(), p.CellCount())
	}
	if got := len(p.Cells()); got != 9 {
		t.Fatalf("Cells() returned %d cells", got)
	}
}

func TestPblockOverlaps(t *testing.T) {
	a := pb("a", 0, 0, 2, 2)
	cases := []struct {
		b    Pblock
		want bool
	}{
		{pb("b", 3, 0, 4, 2), false}, // adjacent right
		{pb("b", 0, 3, 2, 4), false}, // adjacent above
		{pb("b", 2, 2, 4, 4), true},  // corner cell shared
		{pb("b", 1, 1, 1, 1), true},  // contained
		{pb("b", 0, 0, 2, 2), true},  // identical
	}
	for _, c := range cases {
		if got := a.Overlaps(c.b); got != c.want {
			t.Errorf("Overlaps(%v, %v) = %v, want %v", a, c.b, got, c.want)
		}
	}
}

func TestPblockOverlapsSymmetricProperty(t *testing.T) {
	f := func(ax0, ay0, aw, ah, bx0, by0, bw, bh uint8) bool {
		a := pb("a", int(ax0), int(ay0), int(ax0)+int(aw%8), int(ay0)+int(ah%8))
		b := pb("b", int(bx0), int(by0), int(bx0)+int(bw%8), int(by0)+int(bh%8))
		return a.Overlaps(b) == b.Overlaps(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPblockContainsConsistentWithCells(t *testing.T) {
	p := pb("a", 1, 1, 2, 3)
	seen := make(map[Cell]bool)
	for _, c := range p.Cells() {
		if !p.Contains(c) {
			t.Fatalf("cell %v enumerated but not contained", c)
		}
		seen[c] = true
	}
	if p.Contains(Cell{X: 0, Y: 1}) || p.Contains(Cell{X: 3, Y: 1}) {
		t.Fatal("Contains accepts cells outside the rectangle")
	}
	if len(seen) != p.CellCount() {
		t.Fatalf("duplicate cells enumerated: %d unique of %d", len(seen), p.CellCount())
	}
}

func TestPblockValidate(t *testing.T) {
	d := VC707()
	if err := pb("ok", 0, 0, d.GridCols()-1, d.GridRows()-1).Validate(d); err != nil {
		t.Fatalf("full-device pblock rejected: %v", err)
	}
	if err := pb("inv", 2, 2, 1, 1).Validate(d); err == nil {
		t.Fatal("inverted corners accepted")
	}
	if err := pb("oob", 0, 0, d.GridCols(), 0).Validate(d); err == nil {
		t.Fatal("out-of-grid pblock accepted")
	}
}

func TestPblockResourcesAndFrames(t *testing.T) {
	d := VC707()
	one := pb("one", 0, 0, 0, 0)
	if one.ResourcesOn(d) != d.CellResources() {
		t.Fatal("single-cell pblock resources != cell resources")
	}
	two := pb("two", 0, 0, 1, 0)
	if two.ResourcesOn(d)[LUT] != 2*d.CellResources()[LUT] {
		t.Fatal("two-cell pblock should double resources")
	}
	if two.Frames(d) != 2*one.Frames(d) {
		t.Fatal("frames should scale with cell count")
	}
	if one.Frames(d) <= 0 {
		t.Fatal("pblock covers no frames")
	}
}

func TestOccupancyClaimRelease(t *testing.T) {
	d := VC707()
	occ := NewOccupancy(d)
	a := pb("a", 0, 0, 1, 1)
	if !occ.CanClaim(a) {
		t.Fatal("empty fabric should accept claim")
	}
	if err := occ.Claim(a); err != nil {
		t.Fatalf("claim failed: %v", err)
	}
	if occ.Owner(Cell{X: 0, Y: 0}) != "a" {
		t.Fatal("owner not recorded")
	}
	b := pb("b", 1, 1, 2, 2) // overlaps a at (1,1)
	if occ.CanClaim(b) {
		t.Fatal("overlapping claim should be rejected")
	}
	if err := occ.Claim(b); err == nil {
		t.Fatal("Claim must fail on overlap")
	}
	// A failed claim must not partially mark cells.
	if occ.Owner(Cell{X: 2, Y: 2}) != "" {
		t.Fatal("failed claim leaked ownership")
	}
	for i, own := range occ.taken {
		if own == "a" {
			occ.taken[i] = ""
		}
	}
	if occ.FreeCells() != d.Cells() {
		t.Fatal("release did not free all cells")
	}
	if err := occ.Claim(b); err != nil {
		t.Fatalf("claim after release failed: %v", err)
	}
}

func TestOccupancyFreeCellsAccounting(t *testing.T) {
	d := VC707()
	occ := NewOccupancy(d)
	total := d.Cells()
	a := pb("a", 0, 0, 2, 1) // 6 cells
	if err := occ.Claim(a); err != nil {
		t.Fatal(err)
	}
	if got := occ.FreeCells(); got != total-6 {
		t.Fatalf("free cells: got %d want %d", got, total-6)
	}
}

func TestOccupancyRejectsInvalidPblock(t *testing.T) {
	d := VC707()
	occ := NewOccupancy(d)
	bad := pb("bad", -1, 0, 0, 0)
	if occ.CanClaim(bad) {
		t.Fatal("invalid pblock claimable")
	}
	if err := occ.Claim(bad); err == nil {
		t.Fatal("invalid pblock claimed")
	}
}
