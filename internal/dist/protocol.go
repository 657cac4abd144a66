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
// batches), each encoded in place and read into a kept buffer. A collect
// round is one frame per worker connection, listing its lanes. No wire
// compression, no multiplexing, no TLS — this is a trusted-cluster protocol
// whose integrity check exists to catch software bugs and truncated streams,
// not adversaries.
package dist

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"advnet/internal/mathx"
	"advnet/internal/rl"
)

// ProtocolVersion is the wire protocol version carried in the worker hello;
// the coordinator refuses mismatched workers. Version 3 carries a lane's
// pending episode as its env's reset seed plus its actions (rl.Episode).
const ProtocolVersion = 3

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
	// MsgParams is a parameter broadcast: binary (putParams).
	MsgParams
	// MsgCollect is one round's rollout request for every lane a
	// connection serves: JSON collectMsg.
	MsgCollect
	// MsgBatch is one lane's completed rollout: binary (putBatch).
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

// putFrame builds the sealed frame of a control payload in buf's storage.
func putFrame(buf []byte, t MsgType, payload []byte) ([]byte, error) {
	w := newWireWriter(buf, len(payload))
	w.off += copy(w.buf[w.off:], payload)
	return w.seal(t)
}

// writeFrame writes one control frame and returns the number of bytes put
// on the wire.
func writeFrame(w io.Writer, t MsgType, payload []byte) (int, error) {
	frame, err := putFrame(nil, t, payload)
	if err != nil {
		return 0, err
	}
	return w.Write(frame)
}

// frameReader reads one stream's frames into a buffer it keeps, regrown
// only for a larger frame; a payload is valid until the next read.
type frameReader struct {
	r   io.Reader
	hdr [frameHeaderSize]byte
	buf []byte
}

// read reads and verifies one frame, returning its type, payload, and the
// number of bytes consumed from the wire. Integrity failures come back as
// *FrameError; plain transport failures (EOF, reset) as the io error.
func (fr *frameReader) read() (MsgType, []byte, int, error) {
	if _, err := io.ReadFull(fr.r, fr.hdr[:]); err != nil {
		return 0, nil, 0, err
	}
	if got := binary.BigEndian.Uint32(fr.hdr[0:]); got != frameMagic {
		return 0, nil, frameHeaderSize, &FrameError{Op: "read-header", Reason: fmt.Sprintf("bad magic %#x", got)}
	}
	t := MsgType(fr.hdr[4])
	length := binary.BigEndian.Uint32(fr.hdr[5:])
	if length > MaxFramePayload {
		return 0, nil, frameHeaderSize, &FrameError{Op: "read-header", Reason: fmt.Sprintf("%s payload %d bytes exceeds limit %d", t, length, MaxFramePayload)}
	}
	body, err := readBody(fr.r, fr.buf, int(length)+sha256.Size)
	if err != nil {
		return 0, nil, frameHeaderSize, err
	}
	fr.buf = body
	n := frameHeaderSize + len(body)
	payload := body[:length]
	want := frameDigest(t, payload)
	if !bytes.Equal(body[length:], want[:]) {
		return 0, nil, n, &FrameError{Op: "verify", Reason: fmt.Sprintf("%s digest mismatch over %d payload bytes", t, length)}
	}
	return t, payload, n, nil
}

// readBody reads a frame body of size bytes: into buf when its capacity
// holds it, else into one new buffer when it is at most frameChunk,
// otherwise chunk by chunk, joined once the last byte has arrived. A stream
// that ends early returns io.EOF if it ended before the body's first byte
// and io.ErrUnexpectedEOF after it.
func readBody(r io.Reader, buf []byte, size int) ([]byte, error) {
	if size <= max(cap(buf), frameChunk) {
		body := mathx.Resize(buf, size)
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

// collectMsg is one round's request on a connection: every lane the
// connection serves this round. ParamsVersion names the broadcast the
// rollouts must run under; the worker refuses when it holds a different
// version (a protocol bug, never a recoverable condition).
type collectMsg struct {
	ParamsVersion uint64        `json:"params_version"`
	Lanes         []laneRequest `json:"lanes"`
}

// laneRequest asks for one lane's rollout share from the given state.
type laneRequest struct {
	Lane  int          `json:"lane"`
	Steps int          `json:"steps"`
	State rl.LaneState `json:"state"`
}

// decodeCollect unpacks a collect request of a run with the given lane
// count, refusing a list that is empty, too long, or names a lane out of
// range or twice: each listed lane runs on its own goroutine.
func decodeCollect(data []byte, lanes int) (*collectMsg, error) {
	req := new(collectMsg)
	if err := json.Unmarshal(data, req); err != nil {
		return nil, &FrameError{Op: "decode", Reason: fmt.Sprintf("collect payload: %v", err)}
	}
	if len(req.Lanes) == 0 || len(req.Lanes) > lanes {
		return nil, &FrameError{Op: "decode", Reason: fmt.Sprintf("collect lists %d lanes, want 1 to %d", len(req.Lanes), lanes)}
	}
	seen := make(map[int]bool, len(req.Lanes))
	for _, lr := range req.Lanes {
		if lr.Lane < 0 || lr.Lane >= lanes || seen[lr.Lane] {
			return nil, &FrameError{Op: "decode", Reason: fmt.Sprintf("collect lane %d is out of range [0,%d) or listed twice", lr.Lane, lanes)}
		}
		seen[lr.Lane] = true
	}
	return req, nil
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

// wireWriter builds one frame in place: its encoder sizes the payload
// first, so the buffer holds header, payload and digest with no regrowth.
type wireWriter struct {
	buf []byte
	off int
}

// newWireWriter sizes buf, regrown only when its capacity is short, for a
// frame with an n-byte payload, which the encoder then writes.
func newWireWriter(buf []byte, n int) wireWriter {
	return wireWriter{buf: mathx.Resize(buf, frameHeaderSize+n+sha256.Size), off: frameHeaderSize}
}

// seal stamps the header and the digest and returns the frame.
func (w *wireWriter) seal(t MsgType) ([]byte, error) {
	n := len(w.buf) - frameHeaderSize - sha256.Size
	if n > MaxFramePayload {
		return nil, &FrameError{Op: "write", Reason: fmt.Sprintf("%s payload %d bytes exceeds limit %d", t, n, MaxFramePayload)}
	}
	binary.BigEndian.PutUint32(w.buf[0:], frameMagic)
	w.buf[4] = byte(t)
	binary.BigEndian.PutUint32(w.buf[5:], uint32(n))
	d := frameDigest(t, w.buf[frameHeaderSize:frameHeaderSize+n])
	copy(w.buf[frameHeaderSize+n:], d[:])
	return w.buf, nil
}

func (w *wireWriter) u32(v uint32) {
	binary.BigEndian.PutUint32(w.buf[w.off:], v)
	w.off += 4
}
func (w *wireWriter) u64(v uint64) {
	binary.BigEndian.PutUint64(w.buf[w.off:], v)
	w.off += 8
}
func (w *wireWriter) f64s(vs []float64) {
	w.u32(uint32(len(vs)))
	for _, v := range vs {
		w.u64(math.Float64bits(v))
	}
}
func (w *wireWriter) bools(vs []bool) {
	w.u32(uint32(len(vs)))
	for i, v := range vs {
		w.buf[w.off+i] = 0
		if v {
			w.buf[w.off+i] = 1
		}
	}
	w.off += len(vs)
}
func (w *wireWriter) bytes(b []byte) {
	w.u32(uint32(len(b)))
	w.off += copy(w.buf[w.off:], b)
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

// f64s and bools read an array into dst's storage, regrown only when short.
func (r *wireReader) f64s(what string, dst []float64) []float64 {
	n := int(r.u32(what))
	if r.err != nil || r.off+8*n > len(r.buf) {
		r.fail(what)
		return dst
	}
	dst = mathx.Resize(dst, n)
	for i := range dst {
		dst[i] = math.Float64frombits(binary.BigEndian.Uint64(r.buf[r.off:]))
		r.off += 8
	}
	return dst
}
func (r *wireReader) bools(what string, dst []bool) []bool {
	n := int(r.u32(what))
	if r.err != nil || r.off+n > len(r.buf) {
		r.fail(what)
		return dst
	}
	dst = mathx.Resize(dst, n)
	for i := range dst {
		dst[i] = r.buf[r.off+i] != 0
	}
	r.off += n
	return dst
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

// putParams builds the sealed parameter broadcast in buf's storage: version,
// then the policy and value parameter groups as raw float64 bits.
func putParams(buf []byte, version uint64, policy, value [][]float64) ([]byte, error) {
	nets := [2][][]float64{policy, value}
	n := 8
	for _, groups := range nets {
		n += 4
		for _, g := range groups {
			n += 4 + 8*len(g)
		}
	}
	w := newWireWriter(buf, n)
	w.u64(version)
	for _, groups := range nets {
		w.u32(uint32(len(groups)))
		for _, g := range groups {
			w.f64s(g)
		}
	}
	return w.seal(MsgParams)
}

// decodeParams unpacks a parameter broadcast into the groups policy and
// value already hold, regrowing only those that are short. It returns
// version 0, which no broadcast carries, with an error.
func decodeParams(data []byte, policy, value *[][]float64) (uint64, error) {
	r := wireReader{buf: data}
	version := r.u64("params version")
	for _, groups := range [2]*[][]float64{policy, value} {
		n := int(r.u32("params group count"))
		// Every group costs at least its 4-byte length prefix, so a count
		// the remaining bytes cannot hold is hostile or corrupt; refuse it
		// before it sizes an allocation.
		if r.err == nil && n > (len(r.buf)-r.off)/4 {
			return 0, &FrameError{Op: "decode", Reason: fmt.Sprintf("params group count %d exceeds the %d remaining bytes", n, len(r.buf)-r.off)}
		}
		*groups = mathx.Resize(*groups, n)
		for i := range *groups {
			(*groups)[i] = r.f64s("params group", (*groups)[i])
		}
	}
	if err := r.done("params"); err != nil {
		return 0, err
	}
	return version, nil
}

// putBatch builds the sealed frame of a rollout batch in buf's storage. The
// End lane state rides as JSON: it is small, and its fields (RNG words,
// reset seed, actions) already have exact JSON round-trips — Go renders
// float64 shortest-round-trip.
func putBatch(buf []byte, b *rl.RolloutBatch) ([]byte, error) {
	end, err := json.Marshal(b.End)
	if err != nil {
		return buf, err
	}
	rows := [...][]float64{b.Obs, b.Act, b.Rewards, b.Values, b.LogProbs, b.Advs, b.Rets}
	n := 4*4 + 4 + len(b.Dones) + 4 + 3*8 + 4 + len(end)
	for _, vs := range rows {
		n += 4 + 8*len(vs)
	}
	w := newWireWriter(buf, n)
	w.u32(uint32(b.Lane))
	w.u32(uint32(b.Steps))
	w.u32(uint32(b.ObsDim))
	w.u32(uint32(b.ActDim))
	for _, vs := range rows {
		w.f64s(vs)
	}
	w.bools(b.Dones)
	w.u32(uint32(b.Episodes))
	w.u64(math.Float64bits(b.EpRewardSum))
	w.u64(math.Float64bits(b.RewardSum))
	w.u64(math.Float64bits(b.LastValue))
	w.bytes(end)
	return w.seal(MsgBatch)
}

// decodeBatch unpacks a rollout batch into b, reusing its arrays' storage,
// and validates its internal consistency, so a decode can never hand
// partial rows to the trainer. End is decoded into fresh storage: the lane
// state the coordinator holds for the lane may share the previous End's.
func decodeBatch(data []byte, b *rl.RolloutBatch) error {
	r := wireReader{buf: data}
	b.Lane = int(r.u32("lane"))
	b.Steps = int(r.u32("steps"))
	b.ObsDim = int(r.u32("obs dim"))
	b.ActDim = int(r.u32("act dim"))
	b.Obs = r.f64s("obs", b.Obs)
	b.Act = r.f64s("act", b.Act)
	b.Rewards = r.f64s("rewards", b.Rewards)
	b.Values = r.f64s("values", b.Values)
	b.LogProbs = r.f64s("logprobs", b.LogProbs)
	b.Advs = r.f64s("advs", b.Advs)
	b.Rets = r.f64s("rets", b.Rets)
	b.Dones = r.bools("dones", b.Dones)
	b.Episodes = int(r.u32("episodes"))
	b.EpRewardSum = math.Float64frombits(r.u64("ep reward sum"))
	b.RewardSum = math.Float64frombits(r.u64("reward sum"))
	b.LastValue = math.Float64frombits(r.u64("last value"))
	end := r.bytesField("end state")
	if err := r.done("batch"); err != nil {
		return err
	}
	b.End = rl.LaneState{}
	if err := json.Unmarshal(end, &b.End); err != nil {
		return &FrameError{Op: "decode", Reason: fmt.Sprintf("batch end state: %v", err)}
	}
	if err := b.Validate(); err != nil {
		return &FrameError{Op: "decode", Reason: err.Error()}
	}
	return nil
}
