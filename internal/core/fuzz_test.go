package core

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"advnet/internal/cc"
	"advnet/internal/mathx"
	"advnet/internal/netem"
	"advnet/internal/rl"
)

// fileBytes returns the bytes save writes, so the fuzzers start from
// structurally valid corpora.
func fileBytes(f *testing.F, save func(path string) error) []byte {
	f.Helper()
	path := filepath.Join(f.TempDir(), "seed.json")
	if err := save(path); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	return data
}

// envelopeBytes wraps a raw JSON payload in a valid envelope of kind, so
// the seed reaches the loader's own checks past the digest.
func envelopeBytes(f *testing.F, kind, payload string) []byte {
	f.Helper()
	return fileBytes(f, func(path string) error { return rl.WriteEnvelope(path, kind, json.RawMessage(payload)) })
}

// FuzzLoadABRAdversary checks the loader's contract on arbitrary bytes: an
// error, or an adversary with the sizes ABREnv relies on — never a panic.
// The last seed is a zero config over a one-input net, which loaded before
// the loader validated.
func FuzzLoadABRAdversary(f *testing.F) {
	adv := NewABRAdversary(mathx.NewRNG(1), 6, DefaultABRAdversaryConfig())
	f.Add(fileBytes(f, adv.Save))
	f.Add([]byte(`{}`))
	f.Add([]byte(`not json`))
	f.Add(envelopeBytes(f, abrAdversaryKind, `{}`))
	f.Add(envelopeBytes(f, abrAdversaryKind, `{"cfg":{},"policy":{"kind":"gaussian","net":{"sizes":[1,1],"hidden":"tanh","w":[[1]],"b":[[0]]},"log_std":[0]}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "adv.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		loaded, err := LoadABRAdversary(path)
		if err != nil {
			return
		}
		c, in := loaded.Cfg, loaded.Policy.Net().InputSize()
		if loaded.Policy.Net().OutputSize() != 1 || len(loaded.Policy.LogStd()) != 1 {
			t.Fatalf("loaded a policy with %d outputs and %d log-stds, want 1 and 1", loaded.Policy.Net().OutputSize(), len(loaded.Policy.LogStd()))
		}
		if c.HistoryLen <= 0 || c.Window <= 0 || !(0 < c.BandwidthLo && c.BandwidthLo <= c.BandwidthHi) {
			t.Fatalf("loaded config %+v", c)
		}
		if in%c.HistoryLen != 0 || in/c.HistoryLen < 6+1 {
			t.Fatalf("loaded input %d, not %d·(6+L) for L ≥ 1", in, c.HistoryLen)
		}
	})
}

// FuzzLoadCCAdversary is the congestion-control counterpart of
// FuzzLoadABRAdversary: an adversary that loads must drive one CCEnv
// Reset/Step against BBR with its policy. The last two seeds loaded before
// the loader validated and panicked there: a zero config (EWMA alpha 0)
// and the default config over a 5-input net.
func FuzzLoadCCAdversary(f *testing.F) {
	adv := NewCCAdversary(mathx.NewRNG(2), DefaultCCAdversaryConfig())
	f.Add(fileBytes(f, adv.Save))
	f.Add([]byte(`{}`))
	f.Add(envelopeBytes(f, ccAdversaryKind, `{}`))
	f.Add(envelopeBytes(f, ccAdversaryKind, `{"cfg":{"MaxLogStd":1},"policy":{"kind":"gaussian","net":{"sizes":[2,3],"hidden":"tanh","w":[[1,1,1,1,1,1]],"b":[[0,0,0]]},"log_std":[0,0,0]}}`))
	wide := NewCCAdversary(mathx.NewRNG(3), DefaultCCAdversaryConfig())
	wide.Policy = newCCPolicy(mathx.NewRNG(3), 5, wide.Cfg)
	f.Add(fileBytes(f, wide.Save))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "adv.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		loaded, err := LoadCCAdversary(path)
		if err != nil {
			return
		}
		env := NewCCEnv(func() netem.CongestionController { return cc.NewBBR() }, loaded.Cfg, mathx.NewRNG(4))
		env.Step(loaded.Policy.Mode(env.Reset()))
	})
}
