package dist

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net"
	"runtime"
	"testing"

	"advnet/internal/mathx"
	"advnet/internal/rl"
)

// readFrame reads one frame through a fresh frameReader.
func readFrame(r io.Reader) (MsgType, []byte, int, error) {
	return (&frameReader{r: r}).read()
}

// payloadOf reads a sealed frame back, checking its type, and returns the
// payload.
func payloadOf(t *testing.T, want MsgType, frame []byte) []byte {
	t.Helper()
	typ, payload, n, err := readFrame(bytes.NewReader(frame))
	if err != nil || typ != want || n != len(frame) {
		t.Fatalf("frame reads back as %s, %d of %d bytes, %v; want %s", typ, n, len(frame), err, want)
	}
	return payload
}

// TestFrameRoundTrip: frames survive the wire byte-exactly for every
// message type, including empty payloads.
func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte{0xAB}, 4096)}
	for _, typ := range []MsgType{MsgHello, MsgSpec, MsgParams, MsgCollect, MsgBatch, MsgLaneError, MsgShutdown} {
		for _, p := range payloads {
			var buf bytes.Buffer
			wrote, err := writeFrame(&buf, typ, p)
			if err != nil {
				t.Fatalf("%s: write: %v", typ, err)
			}
			if wrote != buf.Len() {
				t.Fatalf("%s: writeFrame reported %d bytes, wrote %d", typ, wrote, buf.Len())
			}
			gotType, gotPayload, read, err := readFrame(&buf)
			if err != nil {
				t.Fatalf("%s: read: %v", typ, err)
			}
			if gotType != typ || !bytes.Equal(gotPayload, p) || read != wrote {
				t.Fatalf("%s: round trip mismatch (type %s, %d/%d bytes)", typ, gotType, read, wrote)
			}
		}
	}
}

// TestFrameCorruptionDetected: flipping any single byte region (magic,
// payload, digest) yields a typed *FrameError, never silent garbage.
func TestFrameCorruptionDetected(t *testing.T) {
	var buf bytes.Buffer
	if _, err := writeFrame(&buf, MsgBatch, []byte("payload-bytes")); err != nil {
		t.Fatal(err)
	}
	clean := buf.Bytes()
	for _, idx := range []int{0, frameHeaderSize + 3, len(clean) - 1} {
		mangled := append([]byte(nil), clean...)
		mangled[idx] ^= 0x40
		_, _, _, err := readFrame(bytes.NewReader(mangled))
		var fe *FrameError
		if !errors.As(err, &fe) {
			t.Fatalf("corruption at byte %d: got %v, want *FrameError", idx, err)
		}
	}
}

// TestFrameOversizedRejected: a length prefix beyond MaxFramePayload is
// refused before any allocation of that size.
func TestFrameOversizedRejected(t *testing.T) {
	var buf bytes.Buffer
	if _, err := writeFrame(&buf, MsgParams, make([]byte, 16)); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[5], raw[6], raw[7], raw[8] = 0xFF, 0xFF, 0xFF, 0xFF // length prefix
	_, _, _, err := readFrame(bytes.NewReader(raw))
	var fe *FrameError
	if !errors.As(err, &fe) {
		t.Fatalf("got %v, want *FrameError", err)
	}
}

// TestFrameLargeRoundTrip: a payload several chunks long (and not a whole
// number of them) arrives byte-exactly through the chunked read.
func TestFrameLargeRoundTrip(t *testing.T) {
	payload := make([]byte, 2*frameChunk+12345)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	var buf bytes.Buffer
	wrote, err := writeFrame(&buf, MsgParams, payload)
	if err != nil {
		t.Fatal(err)
	}
	typ, got, read, err := readFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if typ != MsgParams || !bytes.Equal(got, payload) || read != wrote {
		t.Fatalf("large frame round trip mismatch (type %s, %d/%d bytes)", typ, read, wrote)
	}
}

// TestFrameLyingLengthAllocatesOneChunk: a header claiming MaxFramePayload
// followed by 16 bytes and end of stream is a truncated frame, and reading
// it allocates about one chunk, not the claimed 64 MiB.
func TestFrameLyingLengthAllocatesOneChunk(t *testing.T) {
	raw := make([]byte, frameHeaderSize+16)
	binary.BigEndian.PutUint32(raw[0:], frameMagic)
	raw[4] = byte(MsgParams)
	binary.BigEndian.PutUint32(raw[5:], MaxFramePayload)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, _, err := readFrame(bytes.NewReader(raw))
	runtime.ReadMemStats(&after)
	if err != io.ErrUnexpectedEOF {
		t.Fatalf("truncated oversized frame: %v, want io.ErrUnexpectedEOF", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 2<<20 {
		t.Fatalf("readFrame allocated %d bytes for a %d-byte stream claiming %d", got, len(raw), MaxFramePayload)
	}
}

// TestParamsCodecExact: parameter groups round-trip bitwise, including
// values JSON would be tempted to mangle (negative zero, denormals, NaN
// payload bits are out of scope but ±Inf is not).
func TestParamsCodecExact(t *testing.T) {
	policy := [][]float64{{1.5, -0.0, math.Inf(1)}, {}, {5e-324, -2.000000000000001}}
	value := [][]float64{{math.Pi}}
	frame, err := putParams(nil, 42, policy, value)
	if err != nil {
		t.Fatal(err)
	}
	var gotPolicy, gotValue [][]float64
	version, err := decodeParams(payloadOf(t, MsgParams, frame), &gotPolicy, &gotValue)
	if err != nil {
		t.Fatal(err)
	}
	if version != 42 {
		t.Fatalf("version %d, want 42", version)
	}
	check := func(got, want [][]float64, which string) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d groups, want %d", which, len(got), len(want))
		}
		for i := range want {
			if len(got[i]) != len(want[i]) {
				t.Fatalf("%s group %d: %d values, want %d", which, i, len(got[i]), len(want[i]))
			}
			for j := range want[i] {
				if math.Float64bits(got[i][j]) != math.Float64bits(want[i][j]) {
					t.Fatalf("%s[%d][%d] = %x, want %x", which, i, j, math.Float64bits(got[i][j]), math.Float64bits(want[i][j]))
				}
			}
		}
	}
	check(gotPolicy, policy, "policy")
	check(gotValue, value, "value")
}

// TestBatchCodecRoundTrip: a populated batch survives encode/decode with
// every field intact, and a truncated encoding is refused.
func TestBatchCodecRoundTrip(t *testing.T) {
	rng := mathx.NewRNG(7)
	b := &rl.RolloutBatch{
		Lane: 2, Steps: 3, ObsDim: 2, ActDim: 1,
		Obs:      []float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()},
		Act:      []float64{1, 0, 2},
		Rewards:  []float64{0.5, -0.25, 1},
		Values:   []float64{0.1, 0.2, 0.3},
		LogProbs: []float64{-1.1, -0.9, -2},
		Advs:     []float64{0.01, -0.02, 0.03},
		Rets:     []float64{1, 2, 3},
		Dones:    []bool{false, true, false},
		Episodes: 1, EpRewardSum: 1.25, RewardSum: 1.25, LastValue: 0.33,
		End: rl.LaneState{
			RNG: mathx.NewRNG(9).State(),
			Episode: rl.Episode{
				Live:    true,
				Actions: []float64{1, 0, 2},
				Seed:    json.RawMessage(`{"k":1}`),
			},
		},
	}
	frame, err := putBatch(nil, b)
	if err != nil {
		t.Fatal(err)
	}
	data := payloadOf(t, MsgBatch, frame)
	got := new(rl.RolloutBatch)
	if err := decodeBatch(data, got); err != nil {
		t.Fatal(err)
	}
	wantJSON, _ := json.Marshal(b)
	gotJSON, _ := json.Marshal(got)
	if !bytes.Equal(wantJSON, gotJSON) {
		t.Fatalf("batch round trip mismatch:\nwant %s\ngot  %s", wantJSON, gotJSON)
	}

	var fe *FrameError
	if err := decodeBatch(data[:len(data)-5], new(rl.RolloutBatch)); !errors.As(err, &fe) {
		t.Fatalf("truncated batch: got %v, want *FrameError", err)
	}
	// A batch whose arrays disagree with its step count must be refused at
	// decode, before it can reach the trainer.
	bad := *b
	bad.Steps = 7
	frame, err = putBatch(nil, &bad)
	if err != nil {
		t.Fatal(err)
	}
	if err := decodeBatch(payloadOf(t, MsgBatch, frame), new(rl.RolloutBatch)); !errors.As(err, &fe) {
		t.Fatalf("inconsistent batch: got %v, want *FrameError", err)
	}
}

// TestBatchDecodeReusesStorage: decoding into a batch that held a longer
// rollout reuses its arrays and still yields exactly the new batch, and the
// End state never shares storage with the previous one (the coordinator's
// lane states may alias it).
func TestBatchDecodeReusesStorage(t *testing.T) {
	batch := func(steps int, seed uint64) *rl.RolloutBatch {
		rng := mathx.NewRNG(seed)
		fill := func(n int) []float64 {
			vs := make([]float64, n)
			for i := range vs {
				vs[i] = rng.Float64()
			}
			return vs
		}
		return &rl.RolloutBatch{
			Lane: 1, Steps: steps, ObsDim: 2, ActDim: 1,
			Obs: fill(2 * steps), Act: fill(steps), Rewards: fill(steps), Values: fill(steps),
			LogProbs: fill(steps), Advs: fill(steps), Rets: fill(steps), Dones: make([]bool, steps),
			End: rl.LaneState{RNG: rng.State(), Episode: rl.Episode{Live: true, Actions: fill(2), Seed: json.RawMessage(`{"k":1}`)}},
		}
	}
	var got rl.RolloutBatch
	var frame []byte
	for _, want := range []*rl.RolloutBatch{batch(9, 1), batch(4, 2)} {
		before := got
		var err error
		if frame, err = putBatch(frame, want); err != nil {
			t.Fatal(err)
		}
		if err := decodeBatch(payloadOf(t, MsgBatch, frame), &got); err != nil {
			t.Fatal(err)
		}
		wantJSON, _ := json.Marshal(want)
		gotJSON, _ := json.Marshal(&got)
		if !bytes.Equal(wantJSON, gotJSON) {
			t.Fatalf("%d-step batch decoded over storage:\nwant %s\ngot  %s", want.Steps, wantJSON, gotJSON)
		}
		if before.Obs != nil && &before.Obs[0] != &got.Obs[0] {
			t.Fatal("decode regrew an array that had the room")
		}
		if before.End.Actions != nil && &before.End.Actions[0] == &got.End.Actions[0] {
			t.Fatal("End.Actions reuses the previous End's storage")
		}
	}
}

// TestDecodeParamsHostileGroupCount: a params payload whose group count is
// 0xFFFFFFFF (correctly framed and digested, so the frame layer passes it)
// must be refused by the bound on the count, not by an attempt to allocate
// four billion slice headers.
func TestDecodeParamsHostileGroupCount(t *testing.T) {
	w := wireWriter{buf: make([]byte, 12)}
	w.u64(1)
	w.u32(0xFFFFFFFF)
	var fe *FrameError
	var policy, value [][]float64
	if _, err := decodeParams(w.buf, &policy, &value); !errors.As(err, &fe) {
		t.Fatalf("got %v, want *FrameError", err)
	}
	// One past what the remaining bytes can hold is refused as well.
	frame, err := putParams(nil, 1, [][]float64{{1}, {2}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	data := payloadOf(t, MsgParams, frame)
	data[8+3]++ // policy group count 2 -> 3
	if _, err := decodeParams(data, &policy, &value); !errors.As(err, &fe) {
		t.Fatalf("count beyond remaining bytes: got %v, want *FrameError", err)
	}
}

// FuzzDecodeParams: arbitrary bytes never panic or over-allocate, and
// whatever decodes re-encodes to the same bytes (the encoding is canonical).
func FuzzDecodeParams(f *testing.F) {
	for _, p := range []struct {
		version       uint64
		policy, value [][]float64
	}{{42, [][]float64{{1.5, math.Inf(1)}, {}, {5e-324}}, [][]float64{{math.Pi}}}, {0, nil, nil}} {
		frame, err := putParams(nil, p.version, p.policy, p.value)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame[frameHeaderSize : len(frame)-sha256.Size])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var policy, value [][]float64
		version, err := decodeParams(data, &policy, &value)
		if err != nil {
			return
		}
		frame, err := putParams(nil, version, policy, value)
		if err != nil {
			t.Fatal(err)
		}
		if again := payloadOf(t, MsgParams, frame); !bytes.Equal(again, data) {
			t.Fatalf("decode/encode not canonical: %x -> %x", data, again)
		}
	})
}

// FuzzReadFrame: arbitrary bytes on the wire never panic the frame reader and
// never make it allocate more than one chunk beyond twice the bytes it was
// given (the chunks, then the joined body); it returns either
// a frame that writeFrame re-encodes to exactly the bytes consumed, a typed
// *FrameError, or the reader's own end-of-stream error.
func FuzzReadFrame(f *testing.F) {
	frame := func(t MsgType, payload []byte) []byte {
		var buf bytes.Buffer
		if _, err := writeFrame(&buf, t, payload); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	for t := MsgHello; t <= MsgShutdown; t++ {
		f.Add(frame(t, []byte(`{"version":1}`)))
	}
	valid := frame(MsgBatch, bytes.Repeat([]byte{7}, 64))
	badMagic := append([]byte(nil), valid...)
	badMagic[0] ^= 0xFF
	f.Add(badMagic)
	tooLong := append([]byte(nil), valid...)
	binary.BigEndian.PutUint32(tooLong[5:], MaxFramePayload+1)
	f.Add(tooLong)
	f.Add(valid[:frameHeaderSize+10])
	badDigest := append([]byte(nil), valid...)
	badDigest[len(badDigest)-1] ^= 1
	f.Add(badDigest)
	f.Add(append(append([]byte(nil), valid...), "trailing"...))

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		typ, payload, n, err := readFrame(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		// 1 MiB of slack for whatever the test binary's other goroutines do.
		if got := after.TotalAlloc - before.TotalAlloc; got > uint64(frameChunk+2*len(data)+1<<20) {
			t.Fatalf("readFrame allocated %d bytes for a %d-byte stream", got, len(data))
		}
		if err != nil {
			var fe *FrameError
			if !errors.As(err, &fe) && err != io.EOF && err != io.ErrUnexpectedEOF {
				t.Fatalf("untyped error %T: %v", err, err)
			}
			return
		}
		var again bytes.Buffer
		if _, err := writeFrame(&again, typ, payload); err != nil {
			t.Fatalf("accepted frame does not re-encode: %v", err)
		}
		if n != again.Len() || !bytes.Equal(again.Bytes(), data[:n]) {
			t.Fatalf("accepted %d bytes %x, re-encoded as %x", n, data[:n], again.Bytes())
		}
	})
}

// FuzzDecodeBatch: arbitrary bytes never panic, and a batch that decodes is
// internally consistent — safe to hand to the trainer.
func FuzzDecodeBatch(f *testing.F) {
	frame, err := putBatch(nil, &rl.RolloutBatch{
		Lane: 1, Steps: 2, ObsDim: 2, ActDim: 1,
		Obs: []float64{1, 2, 3, 4}, Act: []float64{0, 1},
		Rewards: []float64{1, -1}, Values: []float64{0, 0}, LogProbs: []float64{-1, -1},
		Advs: []float64{0.5, -0.5}, Rets: []float64{1, 2}, Dones: []bool{false, true},
		Episodes: 1, End: rl.LaneState{RNG: mathx.NewRNG(3).State(), Episode: rl.Episode{Seed: json.RawMessage(`{"k":1}`)}},
	})
	if err != nil {
		f.Fatal(err)
	}
	seed := frame[frameHeaderSize : len(frame)-sha256.Size]
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Fuzz(func(t *testing.T, data []byte) {
		b := new(rl.RolloutBatch)
		if err := decodeBatch(data, b); err != nil {
			return
		}
		if err := b.Validate(); err != nil {
			t.Fatalf("decoded batch fails validation: %v", err)
		}
	})
}

// hostileCollects are collect requests a worker of a 4-lane run must refuse.
var hostileCollects = []struct {
	name  string
	lanes []int
}{
	{"empty list", []int{}},
	{"more lanes than the run's", []int{0, 1, 2, 3, 0}},
	{"a lane listed twice", []int{1, 2, 1}},
	{"a lane out of range", []int{0, 4}},
	{"a negative lane", []int{-1}},
}

func collectPayload(t testing.TB, lanes []int) []byte {
	t.Helper()
	req := collectMsg{ParamsVersion: 1, Lanes: []laneRequest{}}
	for _, l := range lanes {
		req.Lanes = append(req.Lanes, laneRequest{Lane: l, Steps: 8, State: rl.LaneState{Episode: rl.Episode{Seed: json.RawMessage(`{}`)}}})
	}
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestWorkerRefusesHostileLaneLists: a collect frame whose lane list is
// empty, longer than the run's lane count, names a lane twice or one out of
// range is a *FrameError, and the worker drops the connection on it before
// it builds a lane or starts a goroutine.
func TestWorkerRefusesHostileLaneLists(t *testing.T) {
	raw, _ := json.Marshal(miniSpec{Seed: 77, RolloutSteps: 40, PanicAt: -1})
	if _, err := decodeCollect(collectPayload(t, []int{3, 0, 2}), 4); err != nil {
		t.Fatalf("a healthy list is refused: %v", err)
	}
	for _, hc := range hostileCollects {
		name, lanes := hc.name, hc.lanes
		var fe *FrameError
		if _, err := decodeCollect(collectPayload(t, lanes), 4); !errors.As(err, &fe) {
			t.Fatalf("%s: decodeCollect returned %v, want *FrameError", name, err)
		}
		coord, conn := net.Pipe()
		sess := &workerSession{lanes: map[int]*workerLane{}}
		served := make(chan error, 1)
		go func() {
			_, err := sess.serveConn(conn)
			served <- err
		}()
		in := frameReader{r: coord}
		if typ, _, _, err := in.read(); err != nil || typ != MsgHello {
			t.Fatalf("%s: handshake read %s, %v", name, typ, err)
		}
		spec, _ := json.Marshal(specMsg{Domain: "mini", Spec: raw, Lanes: 4})
		for _, f := range []struct {
			t       MsgType
			payload []byte
		}{{MsgSpec, spec}, {MsgCollect, collectPayload(t, lanes)}} {
			if _, err := writeFrame(coord, f.t, f.payload); err != nil {
				t.Fatalf("%s: write %s: %v", name, f.t, err)
			}
		}
		if err := <-served; !errors.As(err, &fe) {
			t.Fatalf("%s: worker returned %v, want *FrameError", name, err)
		}
		if len(sess.lanes) != 0 {
			t.Fatalf("%s: worker built %d lane slots for a refused frame", name, len(sess.lanes))
		}
		coord.Close()
	}
}

// FuzzDecodeCollect: arbitrary bytes never panic, and a collect request that
// decodes lists one to four distinct lanes of a 4-lane run.
func FuzzDecodeCollect(f *testing.F) {
	f.Add(collectPayload(f, []int{0, 1, 2, 3}))
	f.Add(collectPayload(f, []int{2}))
	for _, hc := range hostileCollects {
		f.Add(collectPayload(f, hc.lanes))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := decodeCollect(data, 4)
		if err != nil {
			var fe *FrameError
			if !errors.As(err, &fe) {
				t.Fatalf("untyped error %T: %v", err, err)
			}
			return
		}
		if n := len(req.Lanes); n < 1 || n > 4 {
			t.Fatalf("accepted %d lanes", n)
		}
		seen := map[int]bool{}
		for _, lr := range req.Lanes {
			if lr.Lane < 0 || lr.Lane >= 4 || seen[lr.Lane] {
				t.Fatalf("accepted lane list %+v", req.Lanes)
			}
			seen[lr.Lane] = true
		}
	})
}
