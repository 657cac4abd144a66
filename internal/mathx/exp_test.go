package mathx

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
)

// expInputs returns the special values of Exp and Tanh — zeros, subnormals,
// infinities, NaNs, and each threshold with its one-ulp neighbours — then n
// seeded draws: random bit patterns and uniform values at the scales where
// the functions change behaviour.
func expInputs(n int) []float64 {
	xs := []float64{
		0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		0x1p-1022, -0x1p-1022, math.MaxFloat64, -math.MaxFloat64,
		math.Inf(1), math.Inf(-1), math.NaN(), math.Float64frombits(0xFFF8DEADBEEF0001),
		math.Float64frombits(0x7FF0000000000001), 1, -1, 0.5, 1e-300, 1.327088783922418,
	}
	for _, e := range []float64{
		expOverflow,             // Exp overflows above
		-708.3964185322641,      // e**x leaves the normal range
		-1022.5 * math.Ln2,      // k reaches -1023: the subnormal branch
		-745.1332191019411,      // e**x underflows to 0
		0.625, 0.5 * tanhMaxLog, // Tanh's regime boundaries
	} {
		for _, v := range []float64{e, math.Nextafter(e, math.Inf(-1)), math.Nextafter(e, math.Inf(1))} {
			xs = append(xs, v, -v)
		}
	}
	rng := NewRNG(2019)
	for i := 0; i < n; i++ {
		var x float64
		switch i % 5 {
		case 0:
			x = math.Float64frombits(rng.Uint64())
		case 1:
			x = rng.Uniform(-800, 800)
		case 2:
			x = rng.Uniform(-50, 50)
		case 3:
			x = rng.Uniform(-2, 2)
		case 4:
			x = rng.Uniform(-1e-3, 1e-3)
		}
		xs = append(xs, x)
	}
	return xs
}

// expTanhDigest hashes the bits of Exp and Tanh over xs.
func expTanhDigest(xs []float64) string {
	h := sha256.New()
	var b [16]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:8], math.Float64bits(Exp(x)))
		binary.LittleEndian.PutUint64(b[8:], math.Float64bits(Tanh(x)))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestExpTanhDigest pins Exp and Tanh over a seeded input set plus every
// special value to one digest. It holds on any amd64 host whatever its FMA
// support or GODEBUG setting (make test-nofma reruns it with FMA switched
// off), which is the guarantee every golden digest built on them inherits.
func TestExpTanhDigest(t *testing.T) {
	const want = "130d0dd097583f56ced0d46ab5a1e3fb45e7e3ad494d3b701a2cacf79f2b5f71"
	if got := expTanhDigest(expInputs(200000)); got != want {
		t.Fatalf("Exp/Tanh digest %s, want %s", got, want)
	}
}

// fmaPathTanh is math.Tanh(1.327088783922418) when Go's amd64 math.Exp takes
// its fused multiply-add path; the SSE2 path gives 0x3FEBCB0C0929D37B.
const fmaPathTanh = 0x3FEBCB0C0929D37C

// TestMatchesMathOnFMAPath: where the host's math.Exp takes the fused path,
// Exp and Tanh are math.Exp and math.Tanh bit for bit, NaN payloads
// included. Elsewhere the standard library rounds differently and the test
// has nothing to compare against.
func TestMatchesMathOnFMAPath(t *testing.T) {
	if math.Float64bits(math.Tanh(1.327088783922418)) != fmaPathTanh {
		t.Skip("math.Exp does not take its FMA path on this host")
	}
	n := 1 << 20
	if testing.Short() {
		n = 1 << 16
	}
	bad := 0
	for _, x := range expInputs(n) {
		for _, f := range []struct {
			name      string
			got, want float64
		}{{"Exp", Exp(x), math.Exp(x)}, {"Tanh", Tanh(x), math.Tanh(x)}} {
			if math.Float64bits(f.got) != math.Float64bits(f.want) {
				t.Errorf("%s(%v [%#016x]) = %#016x, math.%s gives %#016x",
					f.name, x, math.Float64bits(x), math.Float64bits(f.got), f.name, math.Float64bits(f.want))
				if bad++; bad == 10 {
					t.FailNow()
				}
			}
		}
	}
}
