package dist

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
)

// This file defines the canonical wire encoding of protocol messages.
// The simulator delivers Message values in memory, but two consumers
// need a deterministic byte serialization of exactly the
// protocol-relevant fields:
//
//   - §III.D signatures (signing.go): the HMAC is computed over the
//     wire encoding, so "what is signed" and "what would travel on the
//     radio" are the same bytes by construction.
//   - untrusted-input hardening: a real deployment decodes frames
//     from the air, and a malformed frame must produce an error, never
//     a panic. DecodeMessage is the strict parser; wire_test.go fuzzes
//     it (FuzzDecodeMessage) with arbitrary byte strings.
//
// The encoding covers From and the single payload, but not To (a
// broadcast carries one signature for all receivers; the receiver is
// link-layer addressing, outside the signed payload) and not Sig
// itself. It is canonical: price entries are sorted by relay id and
// the decoder rejects any non-sorted, duplicated or trailing input,
// so Encode(Decode(b)) == b for every accepted b.

// wireVersion is the format version byte leading every encoding.
const wireVersion = 1

// Payload tags, one per Message payload type.
const (
	tagSPT     = 's'
	tagPrice   = 'p'
	tagCorrect = 'c'
	tagAccuse  = 'a'
	tagEvict   = 'e'
)

// Decoder resource bounds: a frame that claims more than these is
// malformed regardless of the bytes that follow (a radio frame cannot
// carry a path of a million hops).
const (
	maxWirePath = 1 << 16
	maxWireKind = 1 << 12
	maxWireMap  = 1 << 16
)

// EncodeMessage serializes the signed fields of m — From and the one
// payload — into the canonical wire form. It panics on a Message
// carrying no payload or more than one (those are simulator bugs, not
// network input).
func EncodeMessage(m *Message) []byte {
	set := 0
	for _, p := range []bool{m.SPT != nil, m.Price != nil, m.Correct != nil, m.Accuse != nil, m.Evict != nil} {
		if p {
			set++
		}
	}
	if set != 1 {
		panic(fmt.Sprintf("dist: EncodeMessage needs exactly one payload, have %d", set))
	}
	buf := make([]byte, 0, 64)
	buf = append(buf, wireVersion)
	w64 := func(x uint64) { buf = binary.BigEndian.AppendUint64(buf, x) }
	wi := func(x int) { w64(uint64(int64(x))) }
	wf := func(x float64) { w64(math.Float64bits(x)) }
	wi(m.From)
	switch {
	case m.SPT != nil:
		buf = append(buf, tagSPT)
		wf(m.SPT.D)
		wi(m.SPT.FH)
		wf(m.SPT.Cost)
		wi(m.SPT.Gen)
		wi(len(m.SPT.Path))
		for _, v := range m.SPT.Path {
			wi(v)
		}
	case m.Price != nil:
		buf = append(buf, tagPrice)
		wi(m.Price.Gen)
		keys := make([]int, 0, len(m.Price.Prices))
		for k := range m.Price.Prices {
			keys = append(keys, k)
		}
		sort.Ints(keys)
		wi(len(keys))
		for _, k := range keys {
			wi(k)
			wf(m.Price.Prices[k])
			tr, ok := m.Price.Triggers[k]
			if !ok {
				tr = -1
			}
			wi(tr)
		}
	case m.Correct != nil:
		buf = append(buf, tagCorrect)
		wf(m.Correct.D)
		wi(len(m.Correct.Path))
		for _, v := range m.Correct.Path {
			wi(v)
		}
	case m.Accuse != nil:
		buf = append(buf, tagAccuse)
		wi(m.Accuse.Offender)
		wi(len(m.Accuse.Kind))
		buf = append(buf, m.Accuse.Kind...)
	case m.Evict != nil:
		buf = append(buf, tagEvict)
		wi(m.Evict.Offender)
		wi(len(m.Evict.Accusers))
		for _, v := range m.Evict.Accusers {
			wi(v)
		}
	}
	return buf
}

// wireReader is a bounds-checked cursor over an untrusted buffer.
type wireReader struct {
	data []byte
	pos  int
	err  error
}

func (r *wireReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("dist: wire: "+format, args...)
	}
}

func (r *wireReader) u8() byte {
	if r.err != nil {
		return 0
	}
	if r.pos >= len(r.data) {
		r.fail("truncated at byte %d", r.pos)
		return 0
	}
	b := r.data[r.pos]
	r.pos++
	return b
}

func (r *wireReader) i64() int64 {
	if r.err != nil {
		return 0
	}
	if r.pos+8 > len(r.data) {
		r.fail("truncated at byte %d", r.pos)
		return 0
	}
	v := int64(binary.BigEndian.Uint64(r.data[r.pos:]))
	r.pos += 8
	return v
}

// node reads an int64 that must fit a node id in [-1, 2^31).
func (r *wireReader) node(what string) int {
	v := r.i64()
	if r.err == nil && (v < -1 || v > math.MaxInt32) {
		r.fail("%s %d out of range", what, v)
	}
	return int(v)
}

// count reads a non-negative length claim bounded by max and by the
// bytes remaining (each element costs at least one byte), so a huge
// claimed length cannot drive a huge allocation.
func (r *wireReader) count(what string, max int) int {
	v := r.i64()
	if r.err != nil {
		return 0
	}
	if v < 0 || v > int64(max) {
		r.fail("%s length %d out of range", what, v)
		return 0
	}
	if v > int64(len(r.data)-r.pos) {
		r.fail("%s length %d exceeds remaining input", what, v)
		return 0
	}
	return int(v)
}

func (r *wireReader) f64(what string) float64 {
	v := math.Float64frombits(uint64(r.i64()))
	if r.err == nil && math.IsNaN(v) {
		r.fail("%s is NaN", what)
	}
	return v
}

func (r *wireReader) path(what string) []int {
	n := r.count(what, maxWirePath)
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]int, 0, min(n, 1024))
	for i := 0; i < n; i++ {
		v := r.node(what + " node")
		if r.err == nil && v < 0 {
			r.fail("%s node %d negative", what, v)
		}
		if r.err != nil {
			return nil
		}
		out = append(out, v)
	}
	return out
}

// DecodeMessage parses one canonical wire encoding produced by
// EncodeMessage. Malformed input of any kind — truncation, unknown
// tags, out-of-range ids, NaN floats, unsorted or duplicate price
// entries, trailing garbage — returns an error; no input panics.
//
//lint:allow testonly fuzzed decoder of the dist wire, driven by the dist and serve fuzz targets
func DecodeMessage(data []byte) (*Message, error) {
	r := &wireReader{data: data}
	if v := r.u8(); r.err == nil && v != wireVersion {
		r.fail("unknown version %d", v)
	}
	m := &Message{}
	m.From = r.node("sender")
	if r.err == nil && m.From < 0 {
		r.fail("sender %d negative", m.From)
	}
	switch tag := r.u8(); {
	case r.err != nil:
	case tag == tagSPT:
		a := &SPTAnnounce{}
		a.D = r.f64("distance")
		a.FH = r.node("first hop")
		a.Cost = r.f64("cost")
		a.Gen = r.node("generation")
		a.Path = r.path("path")
		m.SPT = a
	case tag == tagPrice:
		pa := &PriceAnnounce{Prices: map[int]float64{}, Triggers: map[int]int{}}
		pa.Gen = r.node("generation")
		n := r.count("price map", maxWireMap)
		prev := -1
		for i := 0; i < n && r.err == nil; i++ {
			k := r.node("relay")
			if r.err == nil && k <= prev {
				r.fail("price entries not strictly sorted at relay %d", k)
			}
			prev = k
			p := r.f64("price")
			tr := r.node("trigger")
			if r.err != nil {
				break
			}
			pa.Prices[k] = p
			if tr >= 0 {
				pa.Triggers[k] = tr
			}
		}
		m.Price = pa
	case tag == tagCorrect:
		c := &Correction{}
		c.D = r.f64("distance")
		c.Path = r.path("path")
		m.Correct = c
	case tag == tagAccuse:
		a := &Accusation{}
		a.Offender = r.node("offender")
		if r.err == nil && a.Offender < 0 {
			r.fail("offender %d negative", a.Offender)
		}
		n := r.count("kind", maxWireKind)
		if r.err == nil {
			a.Kind = string(r.data[r.pos : r.pos+n])
			r.pos += n
		}
		m.Accuse = a
	case tag == tagEvict:
		e := &EvictionNotice{}
		e.Offender = r.node("offender")
		if r.err == nil && e.Offender < 0 {
			r.fail("offender %d negative", e.Offender)
		}
		n := r.count("accusers", maxWireMap)
		prev := -1
		for i := 0; i < n && r.err == nil; i++ {
			v := r.node("accuser")
			if r.err == nil && v <= prev {
				r.fail("accusers not strictly sorted at %d", v)
			}
			prev = v
			if r.err == nil && v < 0 {
				r.fail("accuser %d negative", v)
			}
			if r.err != nil {
				break
			}
			e.Accusers = append(e.Accusers, v)
		}
		m.Evict = e
	default:
		r.fail("unknown payload tag %q", tag)
	}
	if r.err == nil && r.pos != len(r.data) {
		r.fail("%d trailing bytes", len(r.data)-r.pos)
	}
	if r.err != nil {
		return nil, r.err
	}
	return m, nil
}
