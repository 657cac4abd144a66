package serve

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"advnet/internal/mathx"
	"advnet/internal/nn"
	"advnet/internal/rl"
)

func TestRegistryPublishAndCurrent(t *testing.T) {
	rng := mathx.NewRNG(1)
	net := nn.NewMLP(rng, []int{4, 8, 3}, nn.Tanh)
	reg := NewRegistry(net)

	first := reg.Current()
	if first.ID() != 1 || first.source != "initial" {
		t.Fatalf("initial snapshot id=%d source=%q", first.ID(), first.source)
	}

	// The registry serves a clone: mutating the caller's net must not leak
	// into the published snapshot.
	net.Params()[0][0] = 12345
	if first.Net().Params()[0][0] == 12345 {
		t.Fatal("published snapshot aliases the caller's network")
	}

	next := nn.NewMLP(rng, []int{4, 8, 3}, nn.Tanh)
	snap, err := reg.Publish(next, "iter-10")
	if err != nil {
		t.Fatal(err)
	}
	if snap.ID() != 2 || reg.Current() != snap {
		t.Fatalf("publish did not swap: id=%d", snap.ID())
	}
}

func TestRegistryRejectsArchMismatch(t *testing.T) {
	rng := mathx.NewRNG(2)
	reg := NewRegistry(nn.NewMLP(rng, []int{4, 8, 3}, nn.Tanh))
	old := reg.Current()

	_, err := reg.Publish(nn.NewMLP(rng, []int{4, 16, 3}, nn.Tanh), "bad")
	var mismatch *ArchMismatchError
	if !errors.As(err, &mismatch) {
		t.Fatalf("error %v, want *ArchMismatchError", err)
	}
	if mismatch.Want[1] != 8 || mismatch.Got[1] != 16 {
		t.Fatalf("mismatch detail %v vs %v", mismatch.Want, mismatch.Got)
	}
	if reg.Current() != old {
		t.Fatal("rejected publish displaced the serving snapshot")
	}
}

func TestRegistryReloadFile(t *testing.T) {
	rng := mathx.NewRNG(3)
	serving := nn.NewMLP(rng, []int{4, 8, 3}, nn.Tanh)
	reg := NewRegistry(serving)
	dir := t.TempDir()

	// A fresh net of the same architecture, via the integrity-checked
	// policy envelope.
	path := filepath.Join(dir, "policy.json")
	fresh := nn.NewMLP(rng, []int{4, 8, 3}, nn.Tanh)
	if err := rl.SavePolicyNet(path, fresh); err != nil {
		t.Fatal(err)
	}
	snap, err := reg.ReloadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if snap.source != path || reg.Current() != snap {
		t.Fatal("reload did not publish the file snapshot")
	}
	if snap.Net().Params()[0][0] != fresh.Params()[0][0] {
		t.Fatal("reloaded weights differ from the file's")
	}

	// Corrupt file: error, old snapshot keeps serving.
	if err := os.WriteFile(path, []byte(`{"version":1,"kind":"policy","sha256":"00","payload":{}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.ReloadFile(path); err == nil {
		t.Fatal("corrupt reload succeeded")
	}
	if reg.Current() != snap {
		t.Fatal("corrupt reload displaced the serving snapshot")
	}

	// Architecture change on disk: typed error, old snapshot keeps serving.
	wrong := filepath.Join(dir, "wrong.json")
	if err := rl.SavePolicyNet(wrong, nn.NewMLP(rng, []int{5, 8, 3}, nn.Tanh)); err != nil {
		t.Fatal(err)
	}
	_, err = reg.ReloadFile(wrong)
	var mismatch *ArchMismatchError
	if !errors.As(err, &mismatch) {
		t.Fatalf("error %v, want *ArchMismatchError", err)
	}
	if reg.Current() != snap {
		t.Fatal("mismatched reload displaced the serving snapshot")
	}
}

// FuzzRegistryReloadFile checks hot reload on arbitrary file bytes: a
// reload either fails and leaves the old snapshot serving, or publishes a
// snapshot of the serving architecture that answers a forward pass — never
// a panic.
func FuzzRegistryReloadFile(f *testing.F) {
	dir := f.TempDir()
	for i, sizes := range [][]int{{4, 8, 3}, {5, 8, 3}} {
		path := filepath.Join(dir, "policy.json")
		if err := rl.SavePolicyNet(path, nn.NewMLP(mathx.NewRNG(uint64(i+1)), sizes, nn.Tanh)); err != nil {
			f.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"sizes":[4,3],"hidden":"tanh","w":[[1,2,3,4,5,6,7,8,9,10,11,12]],"b":[[0,0,0]]}`))
	f.Add([]byte(`{"version":1,"kind":"policy","sha256":"00","payload":{}}`))
	f.Add([]byte(`{"version":1,"kind":"ppo-replay","sha256":"","payload":null}`))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		reg := NewRegistry(nn.NewMLP(mathx.NewRNG(9), []int{4, 8, 3}, nn.Tanh))
		old := reg.Current()
		path := filepath.Join(t.TempDir(), "policy.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		snap, err := reg.ReloadFile(path)
		if err != nil {
			if reg.Current() != old {
				t.Fatalf("failed reload (%v) displaced the serving snapshot", err)
			}
			return
		}
		if reg.Current() != snap || !sizesEqual(snap.Sizes(), old.Sizes()) {
			t.Fatalf("reload published %v as current=%v, serving architecture %v", snap.Sizes(), reg.Current() == snap, old.Sizes())
		}
		if out := snap.Net().Predict(make([]float64, 4)); len(out) != 3 {
			t.Fatalf("reloaded snapshot answers %d outputs, want 3", len(out))
		}
	})
}
