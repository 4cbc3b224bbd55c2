package core

import (
	"testing"

	"morc/internal/cache"
	"morc/internal/rng"
)

// TestMergedWithWriteTraffic exercises the merged layout under the
// append+invalidate churn that stresses shared tag/data capacity.
func TestMergedWithWriteTraffic(t *testing.T) {
	cfg := smallConfig()
	cfg.Merged = true
	c := New(cfg)
	r := rng.New(9)
	for i := 0; i < 4000; i++ {
		addr := uint64(r.Intn(512)) * cache.LineSize
		if r.Bool(0.4) {
			c.WriteBack(addr, lineVal(r, 1))
		} else if !c.Read(addr).Hit {
			c.Fill(addr, lineVal(r, 1))
		}
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestDisableCompressionInvalidFractionTracksWrites reproduces the
// Figure 12 mechanism at unit level: pure fills leave no invalid lines;
// rewrite traffic does.
func TestDisableCompressionInvalidFractionTracksWrites(t *testing.T) {
	cfg := smallConfig()
	cfg.DisableCompression = true
	cfg.UnlimitedTags = true
	c := New(cfg)
	r := rng.New(11)
	for i := 0; i < 200; i++ {
		c.Fill(uint64(i)*cache.LineSize, lineVal(r, 0))
	}
	if f := c.InvalidFraction(); f != 0 {
		t.Fatalf("fills alone produced %.2f invalid fraction", f)
	}
	for i := 0; i < 200; i++ {
		c.WriteBack(uint64(i%50)*cache.LineSize, lineVal(r, 0))
	}
	if f := c.InvalidFraction(); f == 0 {
		t.Fatal("rewrites produced no invalid lines")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestActiveLogCountAffectsGrouping: more active logs give the content-
// aware placement more choices, which must not hurt compression on
// mixed-content fills.
func TestActiveLogCountAffectsGrouping(t *testing.T) {
	ratioWith := func(active int) float64 {
		cfg := DefaultConfig(64 * 1024)
		cfg.ActiveLogs = active
		cfg.UnlimitedTags = true
		c := New(cfg)
		r := rng.New(13)
		for i := 0; i < 4000; i++ {
			// Two content classes interleaved: zeros and random.
			kind := 0
			if i%2 == 0 {
				kind = 2
			}
			c.Fill(uint64(i)*cache.LineSize, lineVal(r, kind))
		}
		return c.Ratio()
	}
	one, eight := ratioWith(1), ratioWith(8)
	t.Logf("1 log: %.2f, 8 logs: %.2f", one, eight)
	if eight < one*0.8 {
		t.Fatalf("multi-log (%.2f) clearly worse than single (%.2f)", eight, one)
	}
}

// TestVerifyReadsMode exercises the paranoid decode-on-every-hit path.
func TestVerifyReadsMode(t *testing.T) {
	cfg := smallConfig()
	cfg.VerifyReads = true
	c := New(cfg)
	r := rng.New(77)
	for i := 0; i < 600; i++ {
		addr := uint64(r.Intn(128)) * cache.LineSize
		switch r.Intn(3) {
		case 0:
			c.Read(addr) // decodes on hit; panics on any stream divergence
		case 1:
			c.Fill(addr, lineVal(r, r.Intn(3)))
		default:
			c.WriteBack(addr, lineVal(r, r.Intn(3)))
		}
	}
}
