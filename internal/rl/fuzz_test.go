package rl

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"advnet/internal/mathx"
	"advnet/internal/nn"
)

// FuzzLoadPolicyNet checks the policy loader and the checkpoint-directory
// manifest reader on arbitrary bytes: policy envelopes and full trainer
// checkpoints either load a network that runs a forward pass or return an
// error — never a panic; bare MLP JSON is not an envelope and never loads —
// and a manifest never names a file outside its directory.
func FuzzLoadPolicyNet(f *testing.F) {
	dir := f.TempDir()
	net := nn.NewMLP(mathx.NewRNG(1), []int{2, 4, 3}, nn.Tanh)
	policy := filepath.Join(dir, "policy.json")
	if err := SavePolicyNet(policy, net); err != nil {
		f.Fatal(err)
	}
	trainer := filepath.Join(dir, "trainer.json")
	p, _, _, factory := newVecFixture(16)
	if err := p.SaveCheckpoint(trainer, factory(0)); err != nil {
		f.Fatal(err)
	}
	for _, path := range []string{policy, trainer} {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	bare, err := json.Marshal(net)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(bare)
	f.Add([]byte(`{"version":1,"kind":"policy","sha256":"00","payload":{}}`))
	f.Add([]byte(`{"entries":[{"iter":3,"file":"ckpt-00000003.json"}]}`))
	f.Add([]byte(`{"entries":[{"iter":1,"file":"../../etc/passwd"}]}`))
	f.Add([]byte(`not json`))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "ckpt-00000003.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		net, err := LoadPolicyNet(path)
		if err == nil && json.Unmarshal(data, new(nn.MLP)) == nil {
			t.Fatal("bare MLP JSON loaded as a policy")
		}
		if err == nil {
			if out := net.Predict(make([]float64, net.InputSize())); len(out) != net.OutputSize() {
				t.Fatalf("loaded net answers %d outputs, want %d", len(out), net.OutputSize())
			}
		}

		// The same bytes as the manifest of a directory holding that file.
		if err := os.WriteFile(filepath.Join(dir, manifestName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		cd := &CheckpointDir{Dir: dir}
		if latest, _, err := cd.Latest(); err == nil && filepath.Dir(latest) != dir {
			t.Fatalf("manifest names %s, outside %s", latest, dir)
		}
		cd.LoadLatest(func(path string) error {
			if filepath.Dir(path) != dir {
				t.Fatalf("manifest loads %s, outside %s", path, dir)
			}
			_, err := LoadPolicyNet(path)
			return err
		})
	})
}
