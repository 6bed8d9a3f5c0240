package runner

import (
	"encoding/binary"
	"encoding/hex"
	"hash/fnv"
	"math"
	"reflect"
	"strconv"

	"loadsched/internal/hitmiss"
	"loadsched/internal/memdep"
	"loadsched/internal/ooo"
	"loadsched/internal/trace"
)

// Key text and store payload.
//
// ConfigKey and the profile part of every store key render their structs
// through one reflection walker over a field plan built once per type at
// package init. The text holds
// values only, in declaration order: integers in decimal, bools, quoted
// strings, floats as the 16 hex digits of their IEEE-754 bits, integer
// types with a String method by name (so reordering an enum's constants
// cannot make two machines share a key), and nested structs in braces. A
// nil pointer, interface, func, map, slice or channel is written "-"; a
// non-nil one makes the value unrenderable. Field names and types are left
// out of every key and folded instead into schemaFingerprint, which
// prefixes every store key, so a build whose structs differ in shape never
// reads another's entries.
//
// A key is built in an array on its caller's stack and copied once into the
// key string, so rendering one costs a single allocation of exactly the
// key's size.
//
// A store key is Key's text: storeKeyPrefix, then '{', the quoted machine
// description, the profile's key text, the measured and warmup lengths,
// and '}'. It is assembled from three pieces — appendKeyHead,
// appendProfileText and appendKeyTail — so the runner renders each piece
// as rarely as it changes: a Machine's head once, a workload's profile
// text once per unit, and only the tail per job.

// leaf says how the walker renders one struct field.
type leaf uint8

const (
	leafInt leaf = iota
	leafUint
	leafFloat
	leafBool
	leafString
	leafName   // an integer type with a String method: its name
	leafStruct // a nested struct: its fields in braces
	leafRef    // pointer, interface, func, map, slice or channel: must be nil
)

// fieldPlan is the rendering plan of one struct field.
type fieldPlan struct {
	leaf leaf
	sub  []fieldPlan // the nested struct's fields, for leafStruct
}

// stringer is fmt.Stringer, declared here so key text needs no fmt.
type stringer interface{ String() string }

var stringerType = reflect.TypeOf((*stringer)(nil)).Elem()

// planOf builds the field plan of struct type t. It panics on a field kind
// the key text has no rendering for (arrays, complex numbers, unsafe
// pointers): the plans are built at package init, so adding such a field
// to a keyed struct fails every test run until the walker learns it.
func planOf(t reflect.Type) []fieldPlan {
	plan := make([]fieldPlan, t.NumField())
	for i := range plan {
		f := t.Field(i)
		switch k := f.Type.Kind(); {
		case k >= reflect.Int && k <= reflect.Uint64 && f.IsExported() && f.Type.Implements(stringerType):
			plan[i].leaf = leafName
		case k >= reflect.Int && k <= reflect.Int64:
			plan[i].leaf = leafInt
		case k >= reflect.Uint && k <= reflect.Uintptr:
			plan[i].leaf = leafUint
		case k == reflect.Float32 || k == reflect.Float64:
			plan[i].leaf = leafFloat
		case k == reflect.Bool:
			plan[i].leaf = leafBool
		case k == reflect.String:
			plan[i].leaf = leafString
		case k == reflect.Struct:
			plan[i] = fieldPlan{leaf: leafStruct, sub: planOf(f.Type)}
		case k == reflect.Pointer || k == reflect.Interface || k == reflect.Func ||
			k == reflect.Map || k == reflect.Slice || k == reflect.Chan:
			plan[i].leaf = leafRef
		default:
			panic("runner: key text cannot render " + t.String() + "." + f.Name + " of kind " + k.String())
		}
	}
	return plan
}

var (
	configPlan  = planOf(reflect.TypeOf(ooo.Config{}))
	profilePlan = planOf(reflect.TypeOf(trace.Profile{}))
)

// keyScratch sizes the stack array a key is built in: store keys run to
// about 570 bytes. A longer key still renders, through one extra heap
// allocation.
const keyScratch = 1024

// appendText appends the key text of struct value v, rendered by its plan,
// to b. It reports false, having appended only part of v, when a reference
// field is non-nil.
func appendText(b []byte, v reflect.Value, plan []fieldPlan) ([]byte, bool) {
	b = append(b, '{')
	for i, f := range plan {
		if i > 0 {
			b = append(b, ' ')
		}
		fv := v.Field(i)
		switch f.leaf {
		case leafInt:
			b = strconv.AppendInt(b, fv.Int(), 10)
		case leafUint:
			b = strconv.AppendUint(b, fv.Uint(), 10)
		case leafFloat:
			// The exact bits, so -0 and +0, or two NaN payloads, never
			// share a key.
			var bits [8]byte
			binary.BigEndian.PutUint64(bits[:], math.Float64bits(fv.Float()))
			b = hex.AppendEncode(b, bits[:])
		case leafBool:
			b = strconv.AppendBool(b, fv.Bool())
		case leafString:
			b = appendQuoted(b, fv.String())
		case leafName:
			b = append(b, fv.Interface().(stringer).String()...)
		case leafStruct:
			var ok bool
			if b, ok = appendText(b, fv, f.sub); !ok {
				return b, false
			}
		case leafRef:
			if !fv.IsNil() {
				return b, false
			}
			b = append(b, '-')
		}
	}
	return append(b, '}'), true
}

// appendQuoted appends s between double quotes, backslash-escaping only '"'
// and '\': enough for the string's end to be unambiguous whatever bytes it
// holds.
func appendQuoted(b []byte, s string) []byte {
	b = append(b, '"')
	run := 0
	for i := 0; i < len(s); i++ {
		if c := s[i]; c == '"' || c == '\\' {
			b = append(append(b, s[run:i]...), '\\')
			run = i
		}
	}
	return append(append(b, s[run:]...), '"')
}

// appendKeyHead appends a store key's text up to its profile: the prefix,
// Key's opening brace and the quoted machine description.
func appendKeyHead(b []byte, desc string) []byte {
	b = append(append(b, storeKeyPrefix...), '{')
	return append(appendQuoted(b, desc), ' ')
}

// appendProfileText appends the key text of *p, the middle of a store key.
func appendProfileText(b []byte, p *trace.Profile) []byte {
	// Profile holds no reference fields, so appendText cannot refuse it.
	b, _ = appendText(b, reflect.ValueOf(p).Elem(), profilePlan)
	return b
}

// appendKeyTail appends the rest of a store key after its profile: the two
// lengths and Key's closing brace.
func appendKeyTail(b []byte, uops, warmup int) []byte {
	b = strconv.AppendInt(append(b, ' '), int64(uops), 10)
	b = strconv.AppendInt(append(b, ' '), int64(warmup), 10)
	return append(b, '}')
}

// schemaFingerprint folds the field names and types of everything a store
// entry depends on into 16 hex digits: the machine configuration and the
// memo key (with its trace profile), whose key text carries no field
// names, and the statistics the payload lays out word by word.
var schemaFingerprint = fingerprint(reflect.TypeOf(ooo.Config{}), reflect.TypeOf(Key{}), reflect.TypeOf(ooo.Stats{}))

func fingerprint(types ...reflect.Type) string {
	h := fnv.New64a()
	var describe func(t reflect.Type)
	describe = func(t reflect.Type) {
		h.Write([]byte(t.String()))
		if t.Kind() != reflect.Struct {
			return
		}
		h.Write([]byte("{"))
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			h.Write([]byte(f.Name + " "))
			describe(f.Type)
			h.Write([]byte(";"))
		}
		h.Write([]byte("}"))
	}
	for _, t := range types {
		describe(t)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// statsWords is the number of counters in ooo.Stats, each one 8-byte word
// of the store payload.
const statsWords = 33

// encodeStats lays st out as the store payload: its counters in
// declaration order as little-endian 8-byte words, 264 bytes in all. The
// layout is encoding/binary's for the struct, so stores written through
// binary.Write read back unchanged.
func encodeStats(st *ooo.Stats) []byte {
	c, h, cpi := &st.Class, &st.HM, &st.CPI
	return appendWords(make([]byte, 0, 8*statsWords),
		uint64(st.Cycles), st.Uops, st.Loads, st.Stores, st.Branches,
		c.Loads, c.NotConflicting, c.ANCPC, c.ANCPNC, c.ACPC, c.ACPNC,
		h.AHPH, h.AHPM, h.AMPH, h.AMPM,
		st.Collisions, st.L1Hits, st.L1Misses, st.L2Misses,
		st.BranchMispredicts, st.RenameStalls,
		st.BankConflicts, st.BankMispredicts, st.BankDuplicates,
		uint64(cpi.Base), uint64(cpi.Frontend), uint64(cpi.WindowFull),
		uint64(cpi.PortContention), uint64(cpi.OrderingWait), uint64(cpi.BankConflict),
		uint64(cpi.CollisionRecovery), uint64(cpi.MissReplay), uint64(cpi.DataStall))
}

// appendWords appends each word to b as 8 little-endian bytes.
func appendWords(b []byte, words ...uint64) []byte {
	for _, w := range words {
		b = binary.LittleEndian.AppendUint64(b, w)
	}
	return b
}

// decodeStats fills st from a store payload, which must be exactly
// statsWords words long; any other length reports false and leaves st
// untouched. The counters are read in the order encodeStats writes them
// (Go evaluates the literal's calls left to right).
func decodeStats(b []byte, st *ooo.Stats) bool {
	if len(b) != 8*statsWords {
		return false
	}
	u := func() uint64 {
		w := binary.LittleEndian.Uint64(b)
		b = b[8:]
		return w
	}
	i := func() int64 { return int64(u()) }
	*st = ooo.Stats{
		Cycles: i(), Uops: u(), Loads: u(), Stores: u(), Branches: u(),
		Class: memdep.Classification{Loads: u(), NotConflicting: u(),
			ANCPC: u(), ANCPNC: u(), ACPC: u(), ACPNC: u()},
		HM:         hitmiss.Outcomes{AHPH: u(), AHPM: u(), AMPH: u(), AMPM: u()},
		Collisions: u(), L1Hits: u(), L1Misses: u(), L2Misses: u(),
		BranchMispredicts: u(), RenameStalls: u(),
		BankConflicts: u(), BankMispredicts: u(), BankDuplicates: u(),
		CPI: ooo.CPIStack{Base: i(), Frontend: i(), WindowFull: i(),
			PortContention: i(), OrderingWait: i(), BankConflict: i(),
			CollisionRecovery: i(), MissReplay: i(), DataStall: i()},
	}
	return true
}
