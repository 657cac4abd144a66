// Package dist implements multi-process distributed PPO training: a
// coordinator process owns the trainer (parameters, optimizer, trainer RNG,
// checkpoints) and farms rollout collection out to worker processes over
// TCP. The determinism contract is inherited from internal/rl's lane
// substrate: a distributed run with W lanes produces bitwise-identical nets
// to an in-process rl.VecRunner with W workers, regardless of how many
// worker processes happen to serve those lanes or how they die and rejoin
// mid-run — lanes are stateless pure functions, so the coordinator simply
// re-sends a dead worker's lane requests to a surviving process.
//
// The wire protocol is deliberately primitive: length-prefixed frames over
// a plain TCP stream, each carrying a sha256 digest of its contents, with
// JSON payloads for control messages and an exact float64-bits binary
// encoding for the two bulk payloads (parameter broadcasts and rollout
// batches). No wire compression, no multiplexing, no TLS — this is a
// trusted-cluster protocol whose integrity check exists to catch software
// bugs and truncated streams, not adversaries.
package dist

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"advnet/internal/rl"
)

// ProtocolVersion is the wire protocol version carried in the worker hello;
// the coordinator refuses mismatched workers.
const ProtocolVersion = 1

// frameMagic guards against a stray client speaking something else entirely.
const frameMagic uint32 = 0xAD7E51D1

// MaxFramePayload bounds a frame's payload so a corrupt length prefix
// cannot make the receiver allocate gigabytes before the digest check runs.
const MaxFramePayload = 64 << 20

// frameChunk is the most readFrame allocates ahead of the bytes it has
// received: a frame body up to this size is read into one buffer, a larger
// one in chunks of this size as its bytes arrive, so a header that claims
// more than the peer sends costs at most one chunk.
const frameChunk = 1 << 20

// MsgType identifies a frame's payload.
type MsgType uint8

const (
	// MsgHello is the worker's first frame: JSON helloMsg.
	MsgHello MsgType = iota + 1
	// MsgSpec is the coordinator's handshake reply: JSON specMsg.
	MsgSpec
	// MsgParams is a parameter broadcast: binary (encodeParams).
	MsgParams
	// MsgCollect is a lane rollout request: JSON collectMsg.
	MsgCollect
	// MsgBatch is a completed rollout: binary (encodeBatch).
	MsgBatch
	// MsgLaneError reports a deterministic lane failure (an environment or
	// policy panic): JSON laneErrorMsg. Unlike a connection loss, this is
	// not recoverable by reassignment — the same lane state would fail
	// anywhere — so the coordinator aborts the run with a typed *LaneError.
	MsgLaneError
	// MsgShutdown tells the worker the run is complete; the worker exits
	// instead of reconnecting.
	MsgShutdown
)

func (t MsgType) String() string {
	switch t {
	case MsgHello:
		return "hello"
	case MsgSpec:
		return "spec"
	case MsgParams:
		return "params"
	case MsgCollect:
		return "collect"
	case MsgBatch:
		return "batch"
	case MsgLaneError:
		return "lane-error"
	case MsgShutdown:
		return "shutdown"
	}
	return fmt.Sprintf("msg(%d)", uint8(t))
}

// FrameError is a malformed or corrupt frame: bad magic, oversized payload,
// digest mismatch, or a payload that does not decode. The receiving side
// treats it like a connection loss (drop the peer, reassign its lanes) —
// a stream that has lost framing cannot be resynchronized.
type FrameError struct {
	Op     string // "read-header", "verify", "decode", ...
	Reason string
}

func (e *FrameError) Error() string {
	return fmt.Sprintf("dist: frame %s: %s", e.Op, e.Reason)
}

// frame layout:
//
//	magic   uint32 BE
//	type    uint8
//	length  uint32 BE          (payload bytes; <= MaxFramePayload)
//	payload [length]byte
//	digest  [32]byte           (sha256 over type || payload)

const frameHeaderSize = 4 + 1 + 4

func frameDigest(t MsgType, payload []byte) [32]byte {
	h := sha256.New()
	h.Write([]byte{byte(t)})
	h.Write(payload)
	var d [32]byte
	h.Sum(d[:0])
	return d
}

// writeFrame writes one frame and returns the number of bytes put on the
// wire.
func writeFrame(w io.Writer, t MsgType, payload []byte) (int, error) {
	if len(payload) > MaxFramePayload {
		return 0, &FrameError{Op: "write", Reason: fmt.Sprintf("%s payload %d bytes exceeds limit %d", t, len(payload), MaxFramePayload)}
	}
	buf := make([]byte, frameHeaderSize+len(payload)+sha256.Size)
	binary.BigEndian.PutUint32(buf[0:], frameMagic)
	buf[4] = byte(t)
	binary.BigEndian.PutUint32(buf[5:], uint32(len(payload)))
	copy(buf[frameHeaderSize:], payload)
	d := frameDigest(t, payload)
	copy(buf[frameHeaderSize+len(payload):], d[:])
	n, err := w.Write(buf)
	return n, err
}

// readFrame reads and verifies one frame, returning its type, payload, and
// the number of bytes consumed from the wire. Integrity failures come back
// as *FrameError; plain transport failures (EOF, reset) as the io error.
func readFrame(r io.Reader) (MsgType, []byte, int, error) {
	var hdr [frameHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, 0, err
	}
	if got := binary.BigEndian.Uint32(hdr[0:]); got != frameMagic {
		return 0, nil, frameHeaderSize, &FrameError{Op: "read-header", Reason: fmt.Sprintf("bad magic %#x", got)}
	}
	t := MsgType(hdr[4])
	length := binary.BigEndian.Uint32(hdr[5:])
	if length > MaxFramePayload {
		return 0, nil, frameHeaderSize, &FrameError{Op: "read-header", Reason: fmt.Sprintf("%s payload %d bytes exceeds limit %d", t, length, MaxFramePayload)}
	}
	body, err := readBody(r, int(length)+sha256.Size)
	if err != nil {
		return 0, nil, frameHeaderSize, err
	}
	n := frameHeaderSize + len(body)
	payload := body[:length]
	want := frameDigest(t, payload)
	var got [32]byte
	copy(got[:], body[length:])
	if got != want {
		return 0, nil, n, &FrameError{Op: "verify", Reason: fmt.Sprintf("%s digest mismatch over %d payload bytes", t, length)}
	}
	return t, payload, n, nil
}

// readBody reads a frame body of size bytes: into one buffer when it is at
// most frameChunk, otherwise chunk by chunk, joined once the last byte has
// arrived. A stream that ends early returns io.EOF if it ended before the
// body's first byte and io.ErrUnexpectedEOF after it.
func readBody(r io.Reader, size int) ([]byte, error) {
	if size <= frameChunk {
		body := make([]byte, size)
		_, err := io.ReadFull(r, body)
		return body, err
	}
	var chunks [][]byte
	for got := 0; got < size; {
		chunk := make([]byte, min(frameChunk, size-got))
		if _, err := io.ReadFull(r, chunk); err != nil {
			if err == io.EOF && got > 0 {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
		chunks = append(chunks, chunk)
		got += len(chunk)
	}
	return bytes.Join(chunks, nil), nil
}

// helloMsg is the worker's handshake.
type helloMsg struct {
	Version int `json:"version"`
	PID     int `json:"pid"`
}

// specMsg is the coordinator's handshake reply: everything a worker needs
// to build lanes locally (the bulky immutable inputs — corpora, videos —
// are regenerated deterministically from the spec rather than shipped).
type specMsg struct {
	Domain string          `json:"domain"`
	Spec   json.RawMessage `json:"spec"`
	Lanes  int             `json:"lanes"`
}

// collectMsg asks the worker to run one lane's rollout share from the given
// state. ParamsVersion names the broadcast the rollout must run under; the
// worker refuses when it holds a different version (a protocol bug, never a
// recoverable condition).
type collectMsg struct {
	Iter          int          `json:"iter"`
	Lane          int          `json:"lane"`
	Steps         int          `json:"steps"`
	ParamsVersion uint64       `json:"params_version"`
	State         rl.LaneState `json:"state"`
}

// laneErrorMsg reports a deterministic lane failure back to the coordinator.
type laneErrorMsg struct {
	Lane int    `json:"lane"`
	Err  string `json:"err"`
}

// --- binary codecs ---------------------------------------------------------
//
// Parameters and batches are float64 arrays; encoding them as raw IEEE-754
// bits is both exact (the determinism contract is bitwise) and ~3x smaller
// than JSON. All integers are big-endian.

type wireWriter struct{ buf []byte }

func (w *wireWriter) u32(v uint32) {
	w.buf = binary.BigEndian.AppendUint32(w.buf, v)
}
func (w *wireWriter) u64(v uint64) {
	w.buf = binary.BigEndian.AppendUint64(w.buf, v)
}
func (w *wireWriter) f64s(vs []float64) {
	w.u32(uint32(len(vs)))
	for _, v := range vs {
		w.u64(math.Float64bits(v))
	}
}
func (w *wireWriter) bools(vs []bool) {
	w.u32(uint32(len(vs)))
	for _, v := range vs {
		if v {
			w.buf = append(w.buf, 1)
		} else {
			w.buf = append(w.buf, 0)
		}
	}
}
func (w *wireWriter) bytes(b []byte) {
	w.u32(uint32(len(b)))
	w.buf = append(w.buf, b...)
}

type wireReader struct {
	buf []byte
	off int
	err error
}

func (r *wireReader) fail(what string) {
	if r.err == nil {
		r.err = &FrameError{Op: "decode", Reason: fmt.Sprintf("truncated %s at offset %d", what, r.off)}
	}
}
func (r *wireReader) u32(what string) uint32 {
	if r.err != nil || r.off+4 > len(r.buf) {
		r.fail(what)
		return 0
	}
	v := binary.BigEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v
}
func (r *wireReader) u64(what string) uint64 {
	if r.err != nil || r.off+8 > len(r.buf) {
		r.fail(what)
		return 0
	}
	v := binary.BigEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}
func (r *wireReader) f64s(what string) []float64 {
	n := int(r.u32(what))
	if r.err != nil || r.off+8*n > len(r.buf) {
		r.fail(what)
		return nil
	}
	if n == 0 {
		return nil
	}
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = math.Float64frombits(binary.BigEndian.Uint64(r.buf[r.off:]))
		r.off += 8
	}
	return vs
}
func (r *wireReader) bools(what string) []bool {
	n := int(r.u32(what))
	if r.err != nil || r.off+n > len(r.buf) {
		r.fail(what)
		return nil
	}
	if n == 0 {
		return nil
	}
	vs := make([]bool, n)
	for i := range vs {
		vs[i] = r.buf[r.off+i] != 0
	}
	r.off += n
	return vs
}
func (r *wireReader) bytesField(what string) []byte {
	n := int(r.u32(what))
	if r.err != nil || r.off+n > len(r.buf) {
		r.fail(what)
		return nil
	}
	b := r.buf[r.off : r.off+n : r.off+n]
	r.off += n
	return b
}
func (r *wireReader) done(what string) error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.buf) {
		return &FrameError{Op: "decode", Reason: fmt.Sprintf("%s has %d trailing bytes", what, len(r.buf)-r.off)}
	}
	return nil
}

// encodeParams packs a parameter broadcast: version, then the policy and
// value parameter groups as raw float64 bits.
func encodeParams(version uint64, policy, value [][]float64) []byte {
	var w wireWriter
	w.u64(version)
	for _, groups := range [2][][]float64{policy, value} {
		w.u32(uint32(len(groups)))
		for _, g := range groups {
			w.f64s(g)
		}
	}
	return w.buf
}

// decodeParams unpacks a parameter broadcast.
func decodeParams(data []byte) (version uint64, policy, value [][]float64, err error) {
	r := wireReader{buf: data}
	version = r.u64("params version")
	out := [2][][]float64{}
	for k := range out {
		n := int(r.u32("params group count"))
		// Every group costs at least its 4-byte length prefix, so a count
		// the remaining bytes cannot hold is hostile or corrupt; refuse it
		// before it sizes an allocation.
		if r.err == nil && n > (len(r.buf)-r.off)/4 {
			return 0, nil, nil, &FrameError{Op: "decode", Reason: fmt.Sprintf("params group count %d exceeds the %d remaining bytes", n, len(r.buf)-r.off)}
		}
		if r.err == nil && n > 0 {
			out[k] = make([][]float64, n)
			for i := range out[k] {
				out[k][i] = r.f64s("params group")
			}
		}
	}
	if err := r.done("params"); err != nil {
		return 0, nil, nil, err
	}
	return version, out[0], out[1], nil
}

// encodeBatch packs a rollout batch. The End lane state rides as JSON: it
// is small, and its fields (RNG words, env state) already have exact JSON
// round-trips — Go renders float64 shortest-round-trip.
func encodeBatch(b *rl.RolloutBatch) ([]byte, error) {
	end, err := json.Marshal(b.End)
	if err != nil {
		return nil, err
	}
	var w wireWriter
	w.u32(uint32(b.Lane))
	w.u32(uint32(b.Steps))
	w.u32(uint32(b.ObsDim))
	w.u32(uint32(b.ActDim))
	w.f64s(b.Obs)
	w.f64s(b.Act)
	w.f64s(b.Rewards)
	w.f64s(b.Values)
	w.f64s(b.LogProbs)
	w.f64s(b.Advs)
	w.f64s(b.Rets)
	w.bools(b.Dones)
	w.u32(uint32(b.Episodes))
	w.u64(math.Float64bits(b.EpRewardSum))
	w.u64(math.Float64bits(b.RewardSum))
	w.u64(math.Float64bits(b.LastValue))
	w.bytes(end)
	return w.buf, nil
}

// decodeBatch unpacks a rollout batch and validates its internal
// consistency, so a decode can never hand partial rows to the trainer.
func decodeBatch(data []byte) (*rl.RolloutBatch, error) {
	r := wireReader{buf: data}
	b := &rl.RolloutBatch{
		Lane:   int(r.u32("lane")),
		Steps:  int(r.u32("steps")),
		ObsDim: int(r.u32("obs dim")),
		ActDim: int(r.u32("act dim")),
	}
	b.Obs = r.f64s("obs")
	b.Act = r.f64s("act")
	b.Rewards = r.f64s("rewards")
	b.Values = r.f64s("values")
	b.LogProbs = r.f64s("logprobs")
	b.Advs = r.f64s("advs")
	b.Rets = r.f64s("rets")
	b.Dones = r.bools("dones")
	b.Episodes = int(r.u32("episodes"))
	b.EpRewardSum = math.Float64frombits(r.u64("ep reward sum"))
	b.RewardSum = math.Float64frombits(r.u64("reward sum"))
	b.LastValue = math.Float64frombits(r.u64("last value"))
	end := r.bytesField("end state")
	if err := r.done("batch"); err != nil {
		return nil, err
	}
	if err := json.Unmarshal(end, &b.End); err != nil {
		return nil, &FrameError{Op: "decode", Reason: fmt.Sprintf("batch end state: %v", err)}
	}
	if err := b.Validate(); err != nil {
		return nil, &FrameError{Op: "decode", Reason: err.Error()}
	}
	return b, nil
}
