package printer

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

// depositLayer adds a square ring of deposits at z with the given centre
// offset, total filament fil.
func depositLayer(p *Part, z, cx, cy, size, fil float64) {
	const n = 40
	per := fil / n
	for i := 0; i < n; i++ {
		frac := float64(i) / n * 4
		var x, y float64
		switch {
		case frac < 1:
			x, y = -size/2+size*frac, -size/2
		case frac < 2:
			x, y = size/2, -size/2+size*(frac-1)
		case frac < 3:
			x, y = size/2-size*(frac-2), size/2
		default:
			x, y = -size/2, size/2-size*(frac-3)
		}
		p.Add(Deposit{X: cx + x, Y: cy + y, Z: z, Filament: per})
	}
}

func TestPartLayersGrouping(t *testing.T) {
	p := NewPart(0.2)
	depositLayer(p, 0.2, 0, 0, 10, 5)
	depositLayer(p, 0.4, 0, 0, 10, 5)
	depositLayer(p, 0.6, 0, 0, 10, 5)
	layers := p.Layers()
	if len(layers) != 3 {
		t.Fatalf("got %d layers, want 3", len(layers))
	}
	for i, l := range layers {
		if math.Abs(l.Filament-5) > 1e-9 {
			t.Errorf("layer %d filament %v", i, l.Filament)
		}
		if math.Abs(l.CentroidX) > 1e-9 || math.Abs(l.CentroidY) > 1e-9 {
			t.Errorf("layer %d centroid (%v,%v), want origin", i, l.CentroidX, l.CentroidY)
		}
		if math.Abs(l.Width()-10) > 1e-9 || math.Abs(l.Depth()-10) > 1e-9 {
			t.Errorf("layer %d extent %vx%v", i, l.Width(), l.Depth())
		}
	}
	if p.TotalFilament() != 15 {
		t.Errorf("TotalFilament = %v", p.TotalFilament())
	}
}

func TestPartEmptyLayers(t *testing.T) {
	p := NewPart(0.2)
	if p.Layers() != nil {
		t.Error("empty part has layers")
	}
	if q := p.AssessQuality(0.1); q.LayerCount != 0 || q.TotalFilament != 0 {
		t.Errorf("empty quality = %+v", q)
	}
}

func TestPartQualityDetectsLayerShift(t *testing.T) {
	clean := NewPart(0.2)
	for i := 0; i < 5; i++ {
		depositLayer(clean, 0.2*float64(i+1), 0, 0, 10, 5)
	}
	q := clean.AssessQuality(0.5)
	if q.MaxLayerShift > 0.001 {
		t.Errorf("clean part shift = %v", q.MaxLayerShift)
	}

	shifted := NewPart(0.2)
	for i := 0; i < 5; i++ {
		cx := 0.0
		if i >= 3 {
			cx = 2.0 // layers 3+ shifted 2 mm in X — a T4-style wobble
		}
		depositLayer(shifted, 0.2*float64(i+1), cx, 0, 10, 5)
	}
	q = shifted.AssessQuality(0.5)
	if math.Abs(q.MaxLayerShift-2) > 1e-6 {
		t.Errorf("shifted part MaxLayerShift = %v, want 2", q.MaxLayerShift)
	}
}

func TestPartQualityDetectsZGap(t *testing.T) {
	p := NewPart(0.2)
	depositLayer(p, 0.2, 0, 0, 10, 5)
	depositLayer(p, 0.4, 0, 0, 10, 5)
	depositLayer(p, 1.4, 0, 0, 10, 5) // 1 mm gap — T5 delamination
	q := p.AssessQuality(0.5)
	if math.Abs(q.MaxZGap-1.0) > 1e-6 {
		t.Errorf("MaxZGap = %v, want 1.0", q.MaxZGap)
	}
}

func TestPartQualityIgnoresSlivers(t *testing.T) {
	p := NewPart(0.2)
	depositLayer(p, 0.2, 0, 0, 10, 5)
	depositLayer(p, 0.4, 50, 50, 1, 0.01) // prime-line sliver far away
	q := p.AssessQuality(0.5)
	if q.MaxLayerShift != 0 {
		t.Errorf("sliver affected shift: %v", q.MaxLayerShift)
	}
	// The far-away sliver is outside the part region entirely.
	if q.LayerCount != 1 {
		t.Errorf("LayerCount = %d, want 1 (sliver excluded from part region)", q.LayerCount)
	}
}

func TestPartCompare(t *testing.T) {
	golden := NewPart(0.2)
	suspect := NewPart(0.2)
	for i := 0; i < 4; i++ {
		z := 0.2 * float64(i+1)
		depositLayer(golden, z, 0, 0, 10, 5)
		depositLayer(suspect, z, 0.5, 0, 10, 2.5) // half flow, 0.5 mm off
	}
	d := suspect.Compare(golden, 0.5)
	if math.Abs(d.FilamentRatio-0.5) > 1e-9 {
		t.Errorf("FilamentRatio = %v, want 0.5", d.FilamentRatio)
	}
	if math.Abs(d.MaxCentroidShift-0.5) > 1e-9 {
		t.Errorf("MaxCentroidShift = %v, want 0.5", d.MaxCentroidShift)
	}
	if d.LayerCountDelta != 0 {
		t.Errorf("LayerCountDelta = %d", d.LayerCountDelta)
	}
	if !strings.Contains(d.String(), "filament ratio") {
		t.Errorf("Diff.String() = %q", d.String())
	}
}

func TestPartCompareLayerCountDelta(t *testing.T) {
	golden := NewPart(0.2)
	suspect := NewPart(0.2)
	for i := 0; i < 4; i++ {
		depositLayer(golden, 0.2*float64(i+1), 0, 0, 10, 5)
	}
	for i := 0; i < 2; i++ {
		depositLayer(suspect, 0.2*float64(i+1), 0, 0, 10, 5)
	}
	d := suspect.Compare(golden, 0.5)
	if d.LayerCountDelta != -2 {
		t.Errorf("LayerCountDelta = %d, want -2", d.LayerCountDelta)
	}
}

func TestPartQualityString(t *testing.T) {
	p := NewPart(0.2)
	depositLayer(p, 0.2, 0, 0, 10, 5)
	s := p.AssessQuality(0.5).String()
	if !strings.Contains(s, "layers") || !strings.Contains(s, "filament") {
		t.Errorf("Quality.String() = %q", s)
	}
}

func TestNewPartZeroQuantumDefaults(t *testing.T) {
	p := NewPart(0)
	if p.layerQuantum != 0.2 {
		t.Errorf("layerQuantum = %v, want default 0.2", p.layerQuantum)
	}
}

// Property: total filament equals the sum over layers, for arbitrary
// deposits.
func TestPartFilamentConservationProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		p := NewPart(0.2)
		var want float64
		for i, r := range raw {
			fil := float64(r%1000) / 1000
			want += fil
			p.Add(Deposit{
				X: float64(i % 30), Y: float64(i % 17), Z: 0.2 * float64(i%10),
				Filament: fil,
			})
		}
		var got float64
		for _, l := range p.Layers() {
			got += l.Filament
		}
		return math.Abs(got-want) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestPartGrowPresizes: Grow keeps the ledger and makes room for exactly
// the promised deposits, so filling them never regrows the slice.
func TestPartGrowPresizes(t *testing.T) {
	p := NewPart(0.2)
	p.Add(Deposit{X: 1, Filament: 0.5})
	p.Grow(100)
	if got := cap(p.Deposits()) - len(p.Deposits()); got < 100 {
		t.Fatalf("Grow(100) left room for %d deposits", got)
	}
	base := &p.Deposits()[0]
	for i := 0; i < 100; i++ {
		p.Add(Deposit{X: float64(i), Filament: 1})
	}
	if &p.Deposits()[0] != base {
		t.Error("filling the grown ledger reallocated it")
	}
	if d := p.Deposits(); len(d) != 101 || d[0].X != 1 || d[100].X != 99 {
		t.Errorf("ledger after Grow and fill: %d deposits, first %+v, last %+v", len(d), d[0], d[len(d)-1])
	}
	p.Grow(0)
	if &p.Deposits()[0] != base {
		t.Error("Grow(0) reallocated the ledger")
	}
}
