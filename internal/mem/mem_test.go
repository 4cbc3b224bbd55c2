package mem

import (
	"testing"
	"testing/quick"
)

func cfg100() Config {
	return Config{ClockHz: 2e9, BandwidthBytesPerSec: 100e6, AccessLatency: 80}
}

func TestReadLatencyIncludesTransferAndAccess(t *testing.T) {
	c := NewController(cfg100())
	// 100MB/s at 2GHz = 0.05 B/cycle: 64B takes 1280 cycles + 80 access.
	done := c.Read(0, 0, 64)
	if done != 1280+80 {
		t.Fatalf("done = %d, want 1360", done)
	}
}

func TestFCFSQueueing(t *testing.T) {
	c := NewController(cfg100())
	first := c.Read(0, 0, 64)
	second := c.Read(0, 64, 64) // same cycle: queues on the channel
	if second <= first {
		t.Fatalf("second read (%d) did not queue behind first (%d)", second, first)
	}
	if second != 2*1280+80 {
		t.Fatalf("second = %d, want %d", second, 2*1280+80)
	}
	if c.Stats().QueueCycles != 1280 {
		t.Fatalf("queue cycles = %d, want 1280", c.Stats().QueueCycles)
	}
}

func TestIdleChannelNoQueueing(t *testing.T) {
	c := NewController(cfg100())
	c.Read(0, 0, 64)
	done := c.Read(10000, 0, 64) // long after channel idle
	if done != 10000+1280+80 {
		t.Fatalf("done = %d", done)
	}
}

func TestWritesConsumeBandwidth(t *testing.T) {
	c := NewController(cfg100())
	c.Write(0, 0, 64)
	done := c.Read(0, 0, 64) // queues behind the write
	if done != 2*1280+80 {
		t.Fatalf("read after write done = %d, want %d", done, 2*1280+80)
	}
}

func TestStatsAccounting(t *testing.T) {
	c := NewController(cfg100())
	c.Read(0, 0, 64)
	c.Write(0, 0, 64)
	c.Read(0, 0, 64)
	s := c.Stats()
	if s.Reads != 2 || s.Writes != 1 {
		t.Fatalf("ops: %+v", s)
	}
	if s.ReadBytes != 128 || s.WriteBytes != 64 || s.TotalBytes() != 192 {
		t.Fatalf("bytes: %+v", s)
	}
}

func TestHigherBandwidthIsFaster(t *testing.T) {
	slow := NewController(Config{ClockHz: 2e9, BandwidthBytesPerSec: 12.5e6, AccessLatency: 80})
	fast := NewController(Config{ClockHz: 2e9, BandwidthBytesPerSec: 1600e6, AccessLatency: 80})
	if slow.Read(0, 0, 64) <= fast.Read(0, 0, 64) {
		t.Fatal("12.5MB/s not slower than 1600MB/s")
	}
}

func TestBadConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad config did not panic")
		}
	}()
	NewController(Config{})
}

func TestBandwidthConservationProperty(t *testing.T) {
	// Sustained throughput can never exceed the configured cap: after any
	// request sequence, BusyCycles >= TotalBytes * cyclesPerByte - slack.
	f := func(ops []bool) bool {
		c := NewController(cfg100())
		now := uint64(0)
		for _, isRead := range ops {
			if isRead {
				now = c.Read(now, uint64(len(ops))*64, 64)
			} else {
				c.Write(now, uint64(len(ops))*64+64, 64)
			}
		}
		s := c.Stats()
		minBusy := float64(s.TotalBytes()) * (2e9 / 100e6)
		return float64(s.BusyCycles) >= minBusy-1 && c.NextFree() >= s.BusyCycles
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
