package core

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"advnet/internal/abr"
	"advnet/internal/mathx"
	"advnet/internal/nn"
	"advnet/internal/rl"
	"advnet/internal/trace"
)

func TestABRAdversarySaveLoad(t *testing.T) {
	rng := mathx.NewRNG(1)
	v := testVideo()
	adv := NewABRAdversary(rng, v.Levels(), DefaultABRAdversaryConfig())
	adv.Policy.LogStd()[0] = -1.234

	path := filepath.Join(t.TempDir(), "abr.json")
	if err := adv.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadABRAdversary(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Cfg.BandwidthHi != adv.Cfg.BandwidthHi ||
		loaded.Cfg.HistoryLen != adv.Cfg.HistoryLen ||
		len(loaded.Cfg.Hidden) != len(adv.Cfg.Hidden) {
		t.Fatalf("config changed: %+v vs %+v", loaded.Cfg, adv.Cfg)
	}
	if loaded.Policy.LogStd()[0] != -1.234 {
		t.Fatal("log-std not preserved")
	}
	// Deterministic traces from both must match.
	a := adv.GenerateTrace(v, abr.NewBB(), mathx.NewRNG(2), false, "a")
	b := loaded.GenerateTrace(v, abr.NewBB(), mathx.NewRNG(2), false, "b")
	for i := range a.Points {
		if a.Points[i].BandwidthMbps != b.Points[i].BandwidthMbps {
			t.Fatalf("trace diverges at point %d", i)
		}
	}
}

func TestCCAdversarySaveLoad(t *testing.T) {
	rng := mathx.NewRNG(3)
	adv := NewCCAdversary(rng, DefaultCCAdversaryConfig())
	path := filepath.Join(t.TempDir(), "cc.json")
	if err := adv.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCCAdversary(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Cfg.BandwidthHi != adv.Cfg.BandwidthHi ||
		loaded.Cfg.EpisodeSteps != adv.Cfg.EpisodeSteps ||
		loaded.Cfg.MaxLogStd != adv.Cfg.MaxLogStd {
		t.Fatal("config changed")
	}
	obs := []float64{0.5, 0.2}
	a := adv.Policy.Mode(obs)
	b := loaded.Policy.Mode(obs)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("policy mode diverges after load")
		}
	}
	if loaded.Policy.MaxLogStd != adv.Cfg.MaxLogStd {
		t.Fatal("MaxLogStd not restored")
	}
}

// rewritePayload decodes the payload of the envelope of the given kind at
// path, applies edit to it as a raw object, and re-envelopes it with a valid
// digest, so only the loader's own checks can refuse the result.
func rewritePayload(t *testing.T, path, kind string, edit func(map[string]json.RawMessage)) {
	t.Helper()
	payload, _, err := rl.ReadEnvelope(path, kind)
	if err != nil {
		t.Fatal(err)
	}
	var obj map[string]json.RawMessage
	if err := json.Unmarshal(payload, &obj); err != nil {
		t.Fatal(err)
	}
	edit(obj)
	if err := rl.WriteEnvelope(path, kind, obj); err != nil {
		t.Fatal(err)
	}
}

// setField sets key of the JSON object raw to the JSON value v.
func setField(t *testing.T, raw json.RawMessage, key, v string) json.RawMessage {
	t.Helper()
	var obj map[string]json.RawMessage
	if err := json.Unmarshal(raw, &obj); err != nil {
		t.Fatal(err)
	}
	obj[key] = json.RawMessage(v)
	out, err := json.Marshal(obj)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestLoadRejectsLogStdMismatch pins the loader validation: a log_std vector
// whose length disagrees with the network's output dimension must be
// rejected, not silently truncated or zero-filled.
func TestLoadRejectsLogStdMismatch(t *testing.T) {
	rng := mathx.NewRNG(7)
	adv := NewABRAdversary(rng, testVideo().Levels(), DefaultABRAdversaryConfig())
	path := filepath.Join(t.TempDir(), "abr.json")
	if err := adv.Save(path); err != nil {
		t.Fatal(err)
	}
	for name, logStd := range map[string]string{
		"too long":  `[0.1, 0.2]`,
		"too short": `[]`,
	} {
		if err := adv.Save(path); err != nil {
			t.Fatal(err)
		}
		rewritePayload(t, path, abrAdversaryKind, func(obj map[string]json.RawMessage) {
			obj["policy"] = setField(t, obj["policy"], "log_std", logStd)
		})
		if _, err := LoadABRAdversary(path); err == nil {
			t.Errorf("%s log_std accepted", name)
		}
	}
}

// TestLogStdBoundsRoundTrip pins the explicit-presence serialization of the
// policy's log-std bounds: an explicit 0 cap must survive the round trip
// (the legacy encoding conflated it with "unset"), and unbounded (±Inf)
// must come back unbounded.
func TestLogStdBoundsRoundTrip(t *testing.T) {
	rng := mathx.NewRNG(9)
	adv := NewABRAdversary(rng, testVideo().Levels(), DefaultABRAdversaryConfig())
	adv.Policy.MinLogStd = -5
	adv.Policy.MaxLogStd = 0 // explicit zero — a real cap, not "unset"
	path := filepath.Join(t.TempDir(), "abr.json")
	if err := adv.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadABRAdversary(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Policy.MinLogStd != -5 || loaded.Policy.MaxLogStd != 0 {
		t.Fatalf("bounds [%v, %v], want [-5, 0]", loaded.Policy.MinLogStd, loaded.Policy.MaxLogStd)
	}

	unbounded := NewABRAdversary(mathx.NewRNG(10), testVideo().Levels(), DefaultABRAdversaryConfig())
	if err := unbounded.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err = LoadABRAdversary(path)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(loaded.Policy.MinLogStd, -1) || !math.IsInf(loaded.Policy.MaxLogStd, 1) {
		t.Fatalf("default bounds [%v, %v], want ±Inf", loaded.Policy.MinLogStd, loaded.Policy.MaxLogStd)
	}
}

func TestLoadRejectsWrongKind(t *testing.T) {
	rng := mathx.NewRNG(5)
	adv := NewCCAdversary(rng, DefaultCCAdversaryConfig())
	path := filepath.Join(t.TempDir(), "cc.json")
	if err := adv.Save(path); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadABRAdversary(path); err == nil {
		t.Fatal("loaded a CC snapshot as an ABR adversary")
	}
	if _, err := LoadCCAdversary(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("loaded a missing file")
	}
}

// TestModelFilesRoundTrip covers every model file the repository writes:
// each loads back through its reader and re-saves to the same bytes, and
// the same file with one payload byte changed is refused by an error that
// names it.
func TestModelFilesRoundTrip(t *testing.T) {
	v := testVideo()
	rng := mathx.NewRNG(21)
	pol := rl.NewGaussianPolicy(nn.NewMLP(rng, []int{3, 8, 2}, nn.Tanh), -0.5)
	pol.MaxLogStd = 0
	trainer, err := rl.NewPPO(pol, nn.NewMLP(rng, []int{3, 8, 1}, nn.Tanh), rl.DefaultPPOConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}
	net := nn.NewMLP(rng, []int{4, 6, 3}, nn.Tanh)
	abrAdv := NewABRAdversary(mathx.NewRNG(22), v.Levels(), DefaultABRAdversaryConfig())
	ccAdv := NewCCAdversary(mathx.NewRNG(23), DefaultCCAdversaryConfig())
	_, tr := RunScriptedABR(v, abr.NewBB(), NewBBBufferPinner(), 0.08, "reg")
	suite, err := NewABRRegressionSuite(v, abr.NewBB(), &trace.Dataset{Name: "reg", Traces: []*trace.Trace{tr}}, 0.08, 1)
	if err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		name string
		save func(path string) error
		// resave loads src through the reader and writes it to dst.
		resave func(src, dst string) error
	}{
		{"trainer checkpoint", func(path string) error { return trainer.SaveCheckpoint(path, nil) },
			func(src, dst string) error {
				r := mathx.NewRNG(1)
				p := rl.NewGaussianPolicy(nn.NewMLP(r, []int{3, 8, 2}, nn.Tanh), 0)
				fresh, err := rl.NewPPO(p, nn.NewMLP(r, []int{3, 8, 1}, nn.Tanh), rl.DefaultPPOConfig(), r)
				if err != nil {
					return err
				}
				if err := fresh.LoadCheckpoint(src, nil); err != nil {
					return err
				}
				return fresh.SaveCheckpoint(dst, nil)
			}},
		{"policy export", func(path string) error { return rl.SavePolicyNet(path, net) },
			func(src, dst string) error {
				n, err := rl.LoadPolicyNet(src)
				if err != nil {
					return err
				}
				return rl.SavePolicyNet(dst, n)
			}},
		{"abr adversary", abrAdv.Save, func(src, dst string) error {
			a, err := LoadABRAdversary(src)
			if err != nil {
				return err
			}
			return a.Save(dst)
		}},
		{"cc adversary", ccAdv.Save, func(src, dst string) error {
			a, err := LoadCCAdversary(src)
			if err != nil {
				return err
			}
			return a.Save(dst)
		}},
		{"regression suite", suite.Save, func(src, dst string) error {
			s, err := LoadABRRegressionSuite(src)
			if err != nil {
				return err
			}
			return s.Save(dst)
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			path, again := filepath.Join(dir, "model.json"), filepath.Join(dir, "again.json")
			if err := c.save(path); err != nil {
				t.Fatal(err)
			}
			if err := c.resave(path, again); err != nil {
				t.Fatalf("load: %v", err)
			}
			a, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			b, err := os.ReadFile(again)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, b) {
				t.Fatal("load then save changed the file")
			}

			// Change one digit of the payload: the file stays valid JSON,
			// so only the digest can refuse it.
			at := bytes.Index(a, []byte(`"payload":`))
			at += bytes.IndexAny(a[at:], "0123456789")
			a[at] = '0' + (a[at]-'0'+1)%10
			if err := os.WriteFile(path, a, 0o644); err != nil {
				t.Fatal(err)
			}
			err = c.resave(path, again)
			if err == nil || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), "integrity") {
				t.Fatalf("corrupt file: err = %v, want an integrity refusal naming %s", err, path)
			}
		})
	}
}

// TestNewCCEnvRefusesUnboundedConfigs: NewCCEnv panics, naming the field,
// on the configs LoadCCAdversary refuses for their bounds, instead of
// trusting an in-process config (an EpisodeSteps of 1<<62 died in
// makeslice).
func TestNewCCEnvRefusesUnboundedConfigs(t *testing.T) {
	for _, tc := range []struct {
		name, field string
		edit        func(c *CCAdversaryConfig)
	}{
		{"huge episode", "EpisodeSteps", func(c *CCAdversaryConfig) { c.EpisodeSteps = 1 << 62 }},
		{"many short steps", "EpisodeSteps", func(c *CCAdversaryConfig) { c.IntervalS, c.EpisodeSteps = 1e-9, 1<<30 }},
		{"huge interval", "IntervalS", func(c *CCAdversaryConfig) { c.IntervalS = 1e6 }},
		{"huge bandwidth", "BandwidthHi", func(c *CCAdversaryConfig) { c.BandwidthHi = 1e4 }},
	} {
		cfg := DefaultCCAdversaryConfig()
		tc.edit(&cfg)
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, tc.field) {
					t.Errorf("%s: NewCCEnv panicked with %q, want a panic naming %s", tc.name, msg, tc.field)
				}
			}()
			NewCCEnv(newBBRf, cfg, mathx.NewRNG(1))
		}()
	}
}

// TestLoadRefusesUnrunnableAdversaries: an adversary file the env could not
// run (each of these loaded before the loaders validated, and panicked or
// ran without bound on first use) is refused on load.
func TestLoadRefusesUnrunnableAdversaries(t *testing.T) {
	path := filepath.Join(t.TempDir(), "adv.json")
	rng := mathx.NewRNG(31)
	gaussian := func(sizes []int, hidden nn.Activation) *rl.GaussianPolicy {
		return rl.NewGaussianPolicy(nn.NewMLP(rng, sizes, hidden), 0)
	}
	// The fields an over-long or over-fast episode is refused by name.
	bounded := map[string]string{"huge episode": "EpisodeSteps", "many short steps": "EpisodeSteps", "huge interval": "IntervalS", "huge bandwidth": "BandwidthHi"}
	for name, edit := range map[string]func(a *CCAdversary){
		"zero config":       func(a *CCAdversary) { a.Cfg = CCAdversaryConfig{MaxLogStd: 1} },
		"5-input net":       func(a *CCAdversary) { a.Policy = gaussian([]int{5, 4, 3}, nn.Tanh) },
		"2-output net":      func(a *CCAdversary) { a.Policy = gaussian([]int{2, 4, 2}, nn.Tanh) },
		"relu net":          func(a *CCAdversary) { a.Policy = gaussian([]int{2, 4, 3}, nn.ReLU) },
		"zero bandwidth":    func(a *CCAdversary) { a.Cfg.BandwidthLo = 0 },
		"inverted latency":  func(a *CCAdversary) { a.Cfg.LatencyLoMs = a.Cfg.LatencyHiMs + 1 },
		"negative latency":  func(a *CCAdversary) { a.Cfg.LatencyLoMs = -1 },
		"certain loss":      func(a *CCAdversary) { a.Cfg.LossHi = 1 },
		"negative loss":     func(a *CCAdversary) { a.Cfg.LossLo = -0.1 },
		"overflowing range": func(a *CCAdversary) { a.Cfg.BandwidthHi = math.MaxFloat64 },
		"zero interval":     func(a *CCAdversary) { a.Cfg.IntervalS = 0 },
		"zero episode":      func(a *CCAdversary) { a.Cfg.EpisodeSteps = 0 },
		"zero queue":        func(a *CCAdversary) { a.Cfg.QueuePackets = 0 },
		"zero alpha":        func(a *CCAdversary) { a.Cfg.EWMAAlpha = 0 },
		"alpha above one":   func(a *CCAdversary) { a.Cfg.EWMAAlpha = 1.5 },
		"huge episode":      func(a *CCAdversary) { a.Cfg.EpisodeSteps = 1 << 62 },
		"many short steps":  func(a *CCAdversary) { a.Cfg.IntervalS, a.Cfg.EpisodeSteps = 1e-9, 1<<30 },
		"huge interval":     func(a *CCAdversary) { a.Cfg.IntervalS = 1e6 },
		"huge bandwidth":    func(a *CCAdversary) { a.Cfg.BandwidthHi = 1e4 },
	} {
		adv := NewCCAdversary(mathx.NewRNG(32), DefaultCCAdversaryConfig())
		edit(adv)
		if err := adv.Save(path); err != nil {
			t.Fatal(err)
		}
		_, err := LoadCCAdversary(path)
		if err == nil {
			t.Errorf("cc %s: loaded", name)
		} else if f := bounded[name]; !strings.Contains(err.Error(), f) {
			t.Errorf("cc %s: error %q does not name %s", name, err, f)
		}
	}

	levels := testVideo().Levels()
	history := DefaultABRAdversaryConfig().HistoryLen
	for name, edit := range map[string]func(a *ABRAdversary){
		"zero config":          func(a *ABRAdversary) { a.Cfg = ABRAdversaryConfig{} },
		"2-output net":         func(a *ABRAdversary) { a.Policy = gaussian([]int{history * (6 + levels), 8, 2}, nn.Tanh) },
		"input off the ladder": func(a *ABRAdversary) { a.Policy = gaussian([]int{history*(6+levels) + 1, 8, 1}, nn.Tanh) },
		"empty ladder":         func(a *ABRAdversary) { a.Policy = gaussian([]int{history * 6, 8, 1}, nn.Tanh) },
		"zero history":         func(a *ABRAdversary) { a.Cfg.HistoryLen = 0 },
		"zero window":          func(a *ABRAdversary) { a.Cfg.Window = 0 },
		"zero bandwidth":       func(a *ABRAdversary) { a.Cfg.BandwidthLo = 0 },
		"inverted bandwidth":   func(a *ABRAdversary) { a.Cfg.BandwidthLo = a.Cfg.BandwidthHi + 1 },
	} {
		adv := NewABRAdversary(mathx.NewRNG(33), levels, DefaultABRAdversaryConfig())
		edit(adv)
		if err := adv.Save(path); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadABRAdversary(path); err == nil {
			t.Errorf("abr %s: loaded", name)
		}
	}
}
