package arch

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

func validPaper(t *testing.T) Config {
	t.Helper()
	cfg := PaperConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("paper config invalid: %v", err)
	}
	return cfg
}

func TestPaperConfigMatchesTable1(t *testing.T) {
	cfg := validPaper(t)
	if cfg.PEDim != 128 {
		t.Errorf("PEDim = %d, want 128", cfg.PEDim)
	}
	if cfg.NumArrays != 16 {
		t.Errorf("NumArrays = %d, want 16", cfg.NumArrays)
	}
	if cfg.FreqHz != 1_000_000_000 {
		t.Errorf("FreqHz = %d, want 1 GHz", cfg.FreqHz)
	}
	if cfg.MemBandwidth != 450_000_000_000 {
		t.Errorf("MemBandwidth = %d, want 450 GB/s", cfg.MemBandwidth)
	}
	if cfg.WeightSRAM != 1*MiB {
		t.Errorf("WeightSRAM = %d, want 1 MiB", cfg.WeightSRAM)
	}
	if cfg.IOSRAM != 18*MiB {
		t.Errorf("IOSRAM = %d, want 18 MiB", cfg.IOSRAM)
	}
}

func TestTPUv2Config(t *testing.T) {
	cfg := TPUv2Config()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.NumArrays != 2 || cfg.WeightBytes != 2 || cfg.MemBandwidth != 300_000_000_000 {
		t.Errorf("TPUv2 preset wrong: %+v", cfg)
	}
	// 16-bit 128x128 block = 32 KiB; at 300 B/cycle that is 110 cycles.
	if got := cfg.BlockBytes(); got != 32*KiB {
		t.Errorf("block = %d, want 32 KiB", got)
	}
	if got := cfg.ReadCyclesPerArray(); got != 110 {
		t.Errorf("read cycles = %d, want 110", got)
	}
}

func TestValidateDerivesFillLatency(t *testing.T) {
	cfg := validPaper(t)
	if want := Cycles(2 * 128); cfg.FillLatency != want {
		t.Errorf("FillLatency = %d, want %d", cfg.FillLatency, want)
	}
	// An explicit value is preserved.
	cfg2 := PaperConfig()
	cfg2.FillLatency = 99
	if err := cfg2.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg2.FillLatency != 99 {
		t.Errorf("explicit FillLatency overwritten to %d", cfg2.FillLatency)
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
		want   error
	}{
		{"zero PEDim", func(c *Config) { c.PEDim = 0 }, ErrBadPEDim},
		{"negative arrays", func(c *Config) { c.NumArrays = -1 }, ErrBadArrays},
		{"zero freq", func(c *Config) { c.FreqHz = 0 }, ErrBadFreq},
		{"zero bandwidth", func(c *Config) { c.MemBandwidth = 0 }, ErrBadBandwidth},
		{"bandwidth below one byte per cycle", func(c *Config) { c.MemBandwidth = c.FreqHz - 1 }, ErrBadBandwidth},
		{"host link below one byte per cycle", func(c *Config) { c.HostBandwidth = 100_000_000 }, ErrBadBandwidth},
		{"zero weight bytes", func(c *Config) { c.WeightBytes = 0 }, ErrBadWeight},
		{"SRAM below one block", func(c *Config) { c.WeightSRAM = 100 }, ErrBadSRAM},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := PaperConfig()
			tc.mutate(&cfg)
			if err := cfg.Validate(); !errors.Is(err, tc.want) {
				t.Errorf("Validate() = %v, want %v", err, tc.want)
			}
		})
	}
}

// TestValidateBandwidthFloor accepts links of exactly one byte per
// cycle and a host link of zero (none).
func TestValidateBandwidthFloor(t *testing.T) {
	cfg := PaperConfig()
	cfg.MemBandwidth, cfg.HostBandwidth = cfg.FreqHz, cfg.FreqHz
	if err := cfg.Validate(); err != nil {
		t.Errorf("1 B/cycle links: %v", err)
	}
	cfg.HostBandwidth = 0
	if err := cfg.Validate(); err != nil {
		t.Errorf("no host link: %v", err)
	}
}

func TestBlockBytes(t *testing.T) {
	cfg := validPaper(t)
	if want := Bytes(128 * 128); cfg.BlockBytes() != want {
		t.Errorf("BlockBytes = %d, want %d (128x128 int8)", cfg.BlockBytes(), want)
	}
	cfg.WeightBytes = 2
	if want := Bytes(2 * 128 * 128); cfg.BlockBytes() != want {
		t.Errorf("BlockBytes at 16-bit = %d, want %d", cfg.BlockBytes(), want)
	}
}

func TestReadCyclesPerArray(t *testing.T) {
	cfg := validPaper(t)
	// 16384 bytes at 450 B/cycle -> ceil = 37.
	if got := cfg.ReadCyclesPerArray(); got != 37 {
		t.Errorf("ReadCyclesPerArray = %d, want 37", got)
	}
}

func TestWeightBlocks(t *testing.T) {
	cfg := validPaper(t)
	if got := cfg.WeightBlocks(); got != 64 {
		t.Errorf("WeightBlocks = %d, want 64 (1 MiB / 16 KiB)", got)
	}
}

func TestTotalColumns(t *testing.T) {
	cfg := validPaper(t)
	if got := cfg.TotalColumns(); got != 2048 {
		t.Errorf("TotalColumns = %d, want 2048", got)
	}
}

func TestMemCycles(t *testing.T) {
	cfg := validPaper(t)
	cases := []struct {
		bytes Bytes
		want  Cycles
	}{
		{0, 0},
		{-5, 0},
		{1, 1},
		{450, 1},
		{451, 2},
		{45_000, 100},
	}
	for _, tc := range cases {
		if got := cfg.MemCycles(tc.bytes); got != tc.want {
			t.Errorf("MemCycles(%d) = %d, want %d", tc.bytes, got, tc.want)
		}
	}
}

func TestHostCycles(t *testing.T) {
	cfg := validPaper(t)
	if got := cfg.HostCycles(16_000); got != 1000 {
		t.Errorf("HostCycles(16000) = %d, want 1000 at 16 GB/s", got)
	}
	cfg.HostBandwidth = 0
	if got := cfg.HostCycles(1 << 30); got != 0 {
		t.Errorf("HostCycles with no link = %d, want 0", got)
	}
}

func TestMemCyclesMonotonic(t *testing.T) {
	cfg := validPaper(t)
	f := func(a, b uint32) bool {
		x, y := Bytes(a), Bytes(b)
		if x > y {
			x, y = y, x
		}
		return cfg.MemCycles(x) <= cfg.MemCycles(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFormatBytes(t *testing.T) {
	cases := []struct {
		in   Bytes
		want string
	}{
		{512, "512 B"},
		{1 * KiB, "1 KiB"},
		{3 * KiB, "3 KiB"},
		{1536, "1.50 KiB"},
		{1 * MiB, "1 MiB"},
		{1*MiB + 512*KiB, "1.50 MiB"},
		{4 * GiB, "4 GiB"},
	}
	for _, tc := range cases {
		if got := FormatBytes(tc.in); got != tc.want {
			t.Errorf("FormatBytes(%d) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestConfigString(t *testing.T) {
	s := validPaper(t).String()
	for _, want := range []string{"128x128", "x16", "450 GB/s", "1 MiB", "18 MiB"} {
		if !strings.Contains(s, want) {
			t.Errorf("Config.String() = %q, missing %q", s, want)
		}
	}
}

func TestCeilDivPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("ceilDiv(1, 0) did not panic")
		}
	}()
	ceilDiv(1, 0)
}
