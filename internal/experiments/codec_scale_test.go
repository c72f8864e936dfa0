package experiments

import (
	"testing"

	"actyp/internal/metrics"
)

// TestCodecScaleQuick smoke-runs the codec sweep at a tiny scale and
// checks both sweeps produce one series per codec with every point
// populated by a positive rate.
func TestCodecScaleQuick(t *testing.T) {
	cfg := CodecConfig{
		Machines:     200,
		Codecs:       []string{"binary2", "json"},
		PayloadBytes: []int{0, 512},
		Clients:      2,
		OpsPerClient: 3,
		FrameIters:   200,
	}
	ops, frames, err := CodecScale(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 2 || len(frames) != 2 {
		t.Fatalf("series counts = %d ops, %d frames; want 2 each", len(ops), len(frames))
	}
	all := append(append([]metrics.Series{}, ops...), frames...)
	for _, s := range all {
		if s.Label != "binary2" && s.Label != "json" {
			t.Errorf("unexpected series label %q", s.Label)
		}
		if len(s.Points) != len(cfg.PayloadBytes) {
			t.Errorf("series %q has %d points, want %d", s.Label, len(s.Points), len(cfg.PayloadBytes))
			continue
		}
		for i, p := range s.Points {
			if p.Y <= 0 {
				t.Errorf("series %q point %d is %v; want positive rate", s.Label, i, p.Y)
			}
		}
	}
}
