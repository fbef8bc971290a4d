package atomicwrite_test

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"github.com/videodb/hmmm/internal/atomicwrite"
	"github.com/videodb/hmmm/internal/dataset"
	"github.com/videodb/hmmm/internal/feedback"
	"github.com/videodb/hmmm/internal/hmmm"
	"github.com/videodb/hmmm/internal/live"
	"github.com/videodb/hmmm/internal/matrix"
	"github.com/videodb/hmmm/internal/mmm"
	"github.com/videodb/hmmm/internal/store"
	"github.com/videodb/hmmm/internal/videomodel"
)

// recordKind is one of the five durable record kinds, driven through
// its package's exported save and load functions so the tests below
// see exactly what a restart sees.
type recordKind struct {
	name   string
	sample any                            // the value the testdata fixture was written from
	encode func(v any) ([]byte, error)    // the bytes the kind's writer puts on disk
	decode func(data []byte) (any, error) // the kind's loader over those bytes
	// view is what the kind's fixture test compares: the fields a
	// restart depends on, through exported accessors where the type
	// hides them.
	view func(v any) any
	// lossy marks the one kind whose first save/load cycle may change
	// an accepted value: the cmodel loader also accepts a dense model
	// record, which the compact layout then quantizes.
	lossy bool
	// refused are records that pass every integrity check but hold a
	// value the kind's loader must reject as ErrCorrupt.
	refused [][]byte
}

// recordKinds builds the five kinds over one small deterministic corpus
// (3 videos × 60 shots, 15 annotated). The journal and store kinds go
// through files because their loaders take a path.
func recordKinds(tb testing.TB) []recordKind {
	tb.Helper()
	c, err := dataset.Build(dataset.Config{Seed: 9, Videos: 3, Shots: 60, Annotated: 15, Fast: true})
	if err != nil {
		tb.Fatal(err)
	}
	m, err := hmmm.Build(c.Archive, c.Features, hmmm.BuildOptions{})
	if err != nil {
		tb.Fatal(err)
	}
	quantized, err := hmmm.FromCompactSnapshot(m.CompactSnapshot())
	if err != nil {
		tb.Fatal(err)
	}
	log := feedback.NewLog()
	for _, states := range [][]int{{0, 1}, {2, 3}, {0, 1}, {4}} {
		if err := log.MarkPositive(m, states); err != nil {
			tb.Fatal(err)
		}
	}

	// Separate paths: a save leaves the previous version as a .bak,
	// which a recovering loader must not find beside the file it reads.
	dir := tb.TempDir()
	written, read := filepath.Join(dir, "written"), filepath.Join(dir, "read")
	viaFile := func(save func(path string) error) ([]byte, error) {
		if err := save(written); err != nil {
			return nil, err
		}
		return os.ReadFile(written)
	}
	fromFile := func(data []byte, load func(path string) (any, error)) (any, error) {
		if err := os.WriteFile(read, data, 0o644); err != nil {
			return nil, err
		}
		return load(read)
	}
	loadModel := func(p string) (any, error) { return store.LoadModel(p) }
	badModels, badCModels := corruptModelRecords(tb, m)

	return []recordKind{
		{
			name:   "HMMMFLOG",
			sample: log,
			view: func(v any) any {
				l := v.(*feedback.Log)
				return struct {
					Shots, Videos []mmm.AccessPattern
					Pending       int
				}{l.ShotPatterns(), l.VideoPatterns(), l.Pending()}
			},
			encode: func(v any) ([]byte, error) {
				return viaFile(func(p string) error { return atomicwrite.Write(nil, p, v.(*feedback.Log).Save) })
			},
			decode: func(data []byte) (any, error) {
				return fromFile(data, func(p string) (any, error) { return feedback.LoadLog(p) })
			},
		},
		{
			name:   "HMMMILOG",
			sample: journalRecords(),
			view:   func(v any) any { return v },
			encode: func(v any) ([]byte, error) {
				return viaFile(func(p string) error { return live.Persist(nil, p, v.([]live.Record)) })
			},
			decode: func(data []byte) (any, error) {
				return fromFile(data, func(p string) (any, error) {
					records, _, _, err := live.LoadRecover(p)
					return records, err
				})
			},
		},
		{
			name:   "model",
			sample: m,
			view:   modelView,
			encode: func(v any) ([]byte, error) {
				return viaFile(func(p string) error { return store.SaveModel(p, v.(*hmmm.Model)) })
			},
			decode:  func(data []byte) (any, error) { return fromFile(data, loadModel) },
			refused: badModels,
		},
		{
			name:   "cmodel",
			sample: quantized,
			view:   modelView,
			encode: func(v any) ([]byte, error) {
				return viaFile(func(p string) error { return store.SaveModelCompact(p, v.(*hmmm.Model)) })
			},
			decode:  func(data []byte) (any, error) { return fromFile(data, loadModel) },
			lossy:   true,
			refused: badCModels,
		},
		{
			name:   "corpus",
			sample: c,
			view: func(v any) any {
				c := v.(*dataset.Corpus)
				return struct {
					Videos   []*videomodel.Video
					Features map[videomodel.ShotID][]float64
					Config   dataset.Config
				}{c.Archive.Videos, c.Features, c.Config}
			},
			encode: func(v any) ([]byte, error) {
				return viaFile(func(p string) error { return store.SaveCorpus(p, v.(*dataset.Corpus)) })
			},
			decode: func(data []byte) (any, error) {
				return fromFile(data, func(p string) (any, error) { return store.LoadCorpus(p) })
			},
		},
	}
}

// corruptModelRecords builds well-formed model records that hold no
// valid model. The model records carry an A1 payload with a nonzero
// left of the diagonal and a non-square A1 payload — gob matches fields
// by name, so a payload of LocalA alone decodes into the loader's
// payload, and the bad block fails that decode — m's snapshot with a
// 3×4 A2, and m's snapshot with states out of layout. The cmodel records are m's compact snapshot with video 0's
// band starting every row at column 0, with a 3×2 A2 and with no A2 at
// all. The non-square A2 rows sum to 1, so a loader that took A2's
// shape on trust would accept them. Each kind also gets copies of m
// that only validation refuses, written by its own writer.
func corruptModelRecords(tb testing.TB, m *hmmm.Model) (model, cmodel [][]byte) {
	tb.Helper()
	record := func(kind string, payload any) []byte {
		var buf bytes.Buffer
		if err := atomicwrite.EncodeRecord(&buf, store.Magic, store.Version, kind, payload); err != nil {
			tb.Fatal(err)
		}
		return buf.Bytes()
	}
	lower := matrix.NewDense(2, 2)
	lower.Set(0, 0, 1)
	lower.Set(1, 0, 0.5)
	lower.Set(1, 1, 0.5)
	for _, a := range []*matrix.Dense{lower, matrix.NewDense(2, 3)} {
		model = append(model, record("model", struct{ LocalA []*matrix.Dense }{[]*matrix.Dense{a}}))
	}
	// m's snapshot with a row-stochastic but 3×4 A2.
	wide := matrix.NewDense(m.NumVideos(), m.NumVideos()+1)
	wide.Fill(1 / float64(m.NumVideos()+1))
	type Snapshot struct {
		States               []recordState
		B1                   *matrix.Dense
		Pi1                  []float64
		LocalA               []*mmm.A1
		VideoIDs             []videomodel.VideoID
		A2, B2               *matrix.Dense
		Pi2                  []float64
		P12, B1Prime         *matrix.Dense
		ScalerMin, ScalerMax []float64
		Domain               string
	}
	s := m.Snapshot()
	model = append(model, record("model", Snapshot{
		recordStates(m), s.B1, s.Pi1.Values(), s.LocalA, s.VideoIDs, wide, s.B2, s.Pi2, s.P12, s.B1Prime, s.ScalerMin, s.ScalerMax, s.Domain,
	}))
	// m's snapshot whose states are out of video order, carry a wrong
	// local index, or start at 2³¹ ms: the start-time column is int32.
	for _, corrupt := range []func(st []recordState){
		func(st []recordState) { st[0].VideoIdx = 1 },
		func(st []recordState) { st[1].LocalIdx = 0 },
		func(st []recordState) { st[0].StartMS = math.MaxInt32 + 1 },
	} {
		st := recordStates(m)
		corrupt(st)
		model = append(model, record("model", Snapshot{
			st, s.B1, s.Pi1.Values(), s.LocalA, s.VideoIDs, s.A2.Dense(), s.B2, s.Pi2, s.P12, s.B1Prime, s.ScalerMin, s.ScalerMax, s.Domain,
		}))
	}
	// Copies of m that only validation refuses, each written by both
	// writers: a NaN in A2's row 0, a state event past the concept axis,
	// a NaN in B1', and a B2 count that is negative or not an integer.
	written := filepath.Join(tb.TempDir(), "bad")
	for _, corrupt := range []func(c *hmmm.Model){
		func(c *hmmm.Model) {
			d := m.A2.Dense()
			d.Set(0, 0, math.NaN())
			c.A2, _ = mmm.A2FromDense(d) // square by construction
		},
		func(c *hmmm.Model) {
			c.States = slices.Clone(m.States)
			c.States[0].Events = []videomodel.Event{videomodel.EventFromIndex(m.NumConcepts())}
		},
		func(c *hmmm.Model) {
			c.B1Prime = m.B1Prime.Clone()
			c.B1Prime.Set(0, 0, math.NaN())
		},
		func(c *hmmm.Model) {
			c.B2 = m.B2.Clone()
			c.B2.Set(0, 0, -3)
		},
		func(c *hmmm.Model) {
			c.B2 = m.B2.Clone()
			c.B2.Set(0, 0, 0.5)
		},
	} {
		bad := *m
		corrupt(&bad)
		for _, w := range []struct {
			save func(string, *hmmm.Model) error
			to   *[][]byte
		}{{store.SaveModel, &model}, {store.SaveModelCompact, &cmodel}} {
			if err := w.save(written, &bad); err != nil {
				tb.Fatal(err)
			}
			data, err := os.ReadFile(written)
			if err != nil {
				tb.Fatal(err)
			}
			*w.to = append(*w.to, data)
		}
	}

	cs := m.CompactSnapshot()
	n := int(cs.StateCounts[0])
	band := struct {
		Rows, Cols    int
		Start, RowPtr []int32
		Data          []float32
	}{Rows: n, Cols: n, Start: make([]int32, n), RowPtr: make([]int32, n+1)}
	for i := 0; i < n; i++ {
		band.RowPtr[i+1] = int32((i + 1) * n)
		for j := 0; j < n; j++ {
			band.Data = append(band.Data, 1/float32(n))
		}
	}
	var enc bytes.Buffer
	if err := gob.NewEncoder(&enc).Encode(band); err != nil {
		tb.Fatal(err)
	}
	cs.LocalA[0] = new(matrix.Banded)
	if err := cs.LocalA[0].GobDecode(enc.Bytes()); err != nil {
		tb.Fatal(err)
	}
	cmodel = append(cmodel, record("cmodel", cs))

	cs = m.CompactSnapshot()
	enc.Reset()
	if err := gob.NewEncoder(&enc).Encode(struct {
		Rows, Cols int
		Data       []float32
	}{Rows: 3, Cols: 2, Data: []float32{0.5, 0.5, 0.5, 0.5, 0.5, 0.5}}); err != nil {
		tb.Fatal(err)
	}
	cs.A2 = new(matrix.Float32)
	if err := cs.A2.GobDecode(enc.Bytes()); err != nil {
		tb.Fatal(err)
	}
	cmodel = append(cmodel, record("cmodel", cs))
	cs.A2 = nil // gob leaves the field out
	cmodel = append(cmodel, record("cmodel", cs))
	return model, cmodel
}

// TestRecordRefusesCorrupt loads each kind's refused records: every one
// must fail as ErrCorrupt, the cue that sends recovery to the next
// candidate.
func TestRecordRefusesCorrupt(t *testing.T) {
	for _, k := range recordKinds(t) {
		for i, data := range k.refused {
			if v, err := k.decode(data); !errors.Is(err, atomicwrite.ErrCorrupt) {
				t.Errorf("%s refused record %d: loaded %v, err %v; want ErrCorrupt", k.name, i, v, err)
			}
		}
	}
}

// journalRecords is a two-video ingest journal: three shots each, the
// middle one annotated and carrying a feature vector.
func journalRecords() []live.Record {
	evs := videomodel.AllEvents()
	var out []live.Record
	id := videomodel.ShotID(1000)
	for i := 0; i < 2; i++ {
		rec := live.Record{
			Video:          videomodel.VideoID(100 + i),
			Name:           "live-" + string(rune('a'+i)),
			AcceptedUnixMS: int64(1700000000000 + i),
		}
		for si := 0; si < 3; si++ {
			sr := live.ShotRecord{ID: id, Index: si, StartMS: si * 3000, EndMS: (si + 1) * 3000}
			if si == 1 {
				sr.Events = []videomodel.Event{evs[i%len(evs)]}
				sr.Features = []float64{float64(i), 0.5, 2, float64(si)}
			}
			id++
			rec.Shots = append(rec.Shots, sr)
		}
		out = append(out, rec)
	}
	return out
}

// recordState is a level-1 state in the layout a "model" record
// carries.
type recordState struct {
	Shot               videomodel.ShotID
	VideoIdx, LocalIdx int
	Events             []videomodel.Event
	StartMS            int
}

// recordStates returns m's states in a "model" record's layout.
func recordStates(m *hmmm.Model) []recordState {
	out := make([]recordState, m.NumStates())
	for i, st := range m.States {
		vi := m.VideoOf(i)
		lo, _ := m.VideoStates(vi)
		out[i] = recordState{st.Shot, vi, i - lo, st.Events, m.StartMS(i)}
	}
	return out
}

// modelView is a model's persistent state, in the layout of a "model"
// record: the rest of a Model is derived from it on load.
func modelView(v any) any {
	m := v.(*hmmm.Model)
	s := m.Snapshot()
	return struct {
		States               []recordState
		B1                   *matrix.Dense
		Pi1                  []float64
		LocalA               []*mmm.A1
		VideoIDs             []videomodel.VideoID
		A2                   *mmm.A2
		B2                   *matrix.Dense
		Pi2                  []float64
		P12, B1Prime         *matrix.Dense
		ScalerMin, ScalerMax []float64
		Partial              bool
		Domain               string
	}{recordStates(m), s.B1, s.Pi1.Values(), s.LocalA, s.VideoIDs, s.A2, s.B2, s.Pi2, s.P12, s.B1Prime,
		s.ScalerMin, s.ScalerMax, s.Partial, s.Domain}
}

// TestRecordFixturesLoad pins on-disk compatibility: testdata holds one
// <kind>.bin per kind, written by the per-package encoders that predate
// the shared record (their headers carried no Kind field for the two
// logs), and a <kind>.golden dump of the value each was written from.
// Each .bin must still load to its golden value. Both files are frozen:
// regenerating either with current code would test nothing. A golden
// changes by hand only when an in-memory type changes shape, and never
// to match a load result.
func TestRecordFixturesLoad(t *testing.T) {
	for _, k := range recordKinds(t) {
		t.Run(k.name, func(t *testing.T) {
			data, err := os.ReadFile(filepath.Join("testdata", k.name+".bin"))
			if err != nil {
				t.Fatal(err)
			}
			golden, err := os.ReadFile(filepath.Join("testdata", k.name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			got, err := k.decode(data)
			if err != nil {
				t.Fatalf("fixture no longer loads: %v", err)
			}
			want := strings.Split(string(golden), "\n")
			have := strings.Split(dump(k.view(got)), "\n")
			for i := 0; i < len(want) || i < len(have); i++ {
				if i >= len(want) || i >= len(have) || want[i] != have[i] {
					t.Fatalf("fixture loads to a different value: line %d is %q, golden has %q",
						i+1, line(have, i), line(want, i))
				}
			}
		})
	}
}

func line(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return "<end>"
}

// dump renders v one scalar per line as "path = value": pointers and
// interfaces followed, unexported fields included, map entries in key
// order, slices of scalars on one line, floats in their shortest exact
// form. Zero-valued struct fields are left out, as gob leaves them out,
// so a field added later keeps every older dump valid.
func dump(v any) string {
	var b strings.Builder
	dumpValue(&b, "", reflect.ValueOf(v))
	return b.String()
}

func dumpValue(b *strings.Builder, path string, v reflect.Value) {
	if u, ok := squareBlock(v); ok {
		// An A1 block or A2 dumps in the square shape the fixtures were
		// written from: the Eq. 1 generator, the uniform A2 row and the
		// stored rows are an in-memory layout, the n×n entries are the
		// value a restart depends on.
		sq := square{rows: u.Rows(), cols: u.Rows(), data: make([]float64, u.Rows()*u.Rows())}
		for i := 0; i < sq.rows; i++ {
			for j := 0; j < sq.cols; j++ {
				sq.data[i*sq.cols+j] = u.At(i, j)
			}
		}
		dumpValue(b, path, reflect.ValueOf(sq))
		return
	}
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			fmt.Fprintf(b, "%s = nil\n", path)
			return
		}
		dumpValue(b, path, v.Elem())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if f := v.Field(i); !f.IsZero() {
				dumpValue(b, path+"."+v.Type().Field(i).Name, f)
			}
		}
	case reflect.Map:
		keys := v.MapKeys()
		sort.Slice(keys, func(i, j int) bool { return scalar(keys[i]) < scalar(keys[j]) })
		for _, key := range keys {
			dumpValue(b, path+"["+scalar(key)+"]", v.MapIndex(key))
		}
	case reflect.Slice, reflect.Array:
		if v.Len() > 0 && v.Index(0).Kind() < reflect.Array {
			parts := make([]string, v.Len())
			for i := range parts {
				parts[i] = scalar(v.Index(i))
			}
			fmt.Fprintf(b, "%s = [%s]\n", path, strings.Join(parts, " "))
			return
		}
		fmt.Fprintf(b, "%s.len = %d\n", path, v.Len())
		for i := 0; i < v.Len(); i++ {
			dumpValue(b, fmt.Sprintf("%s[%d]", path, i), v.Index(i))
		}
	default:
		fmt.Fprintf(b, "%s = %s\n", path, scalar(v))
	}
}

// square is an A1 block or A2 in the field layout matrix.Dense dumps
// with.
type square struct {
	rows, cols int
	data       []float64
}

// block is what *mmm.A1 and *mmm.A2 share: a square matrix read by
// entry.
type block interface {
	Rows() int
	At(i, j int) float64
}

// squareBlock reports whether v is a non-nil *mmm.A1 or *mmm.A2 reached
// through exported fields, and returns it.
func squareBlock(v reflect.Value) (block, bool) {
	switch v.Type() {
	case reflect.TypeOf((*mmm.A1)(nil)), reflect.TypeOf((*mmm.A2)(nil)):
		if !v.IsNil() && v.CanInterface() {
			return v.Interface().(block), true
		}
	}
	return nil, false
}

// scalar formats a boolean, number or string value.
func scalar(v reflect.Value) string {
	switch v.Kind() {
	case reflect.Bool:
		return strconv.FormatBool(v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return strconv.FormatInt(v.Int(), 10)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return strconv.FormatUint(v.Uint(), 10)
	case reflect.Float32:
		return strconv.FormatFloat(v.Float(), 'g', -1, 32)
	case reflect.Float64:
		return strconv.FormatFloat(v.Float(), 'g', -1, 64)
	case reflect.String:
		return strconv.Quote(v.String())
	}
	panic("dump: unsupported kind " + v.Kind().String())
}

// TestRecordFlipAndCut flips a low and a high bit of every byte of each
// kind's record, and cuts it at every length. Every failure must wrap
// ErrCorrupt — the cue that sends the recovery walk to the next
// candidate — and never panic. A mutation the decoder accepts (gob's
// self-describing header leaves slack) must yield exactly the value
// written, which must re-encode and re-load.
func TestRecordFlipAndCut(t *testing.T) {
	stride := 1
	if testing.Short() {
		stride = 7
	}
	for _, k := range recordKinds(t) {
		t.Run(k.name, func(t *testing.T) {
			good, err := k.encode(k.sample)
			if err != nil {
				t.Fatal(err)
			}
			check := func(what string, data []byte) {
				got, err := k.decode(data)
				if err != nil {
					if !errors.Is(err, atomicwrite.ErrCorrupt) {
						t.Fatalf("%s: unclassified error %v", what, err)
					}
					return
				}
				if !reflect.DeepEqual(got, k.sample) {
					t.Fatalf("%s: accepted a value other than the one written", what)
				}
				if !reflect.DeepEqual(reencode(t, k, got), got) {
					t.Fatalf("%s: re-encode and re-load changed the value", what)
				}
			}
			mut := make([]byte, len(good))
			for i := 0; i < len(good); i += stride {
				for _, bit := range []byte{0x01, 0x80} {
					copy(mut, good)
					mut[i] ^= bit
					check(fmt.Sprintf("flip byte %d bit %#x", i, bit), mut)
				}
			}
			for n := 0; n < len(good); n += stride {
				check(fmt.Sprintf("cut to %d of %d bytes", n, len(good)), good[:n])
			}
		})
	}
}

// FuzzRecordDecode feeds arbitrary bytes to each kind's loader (the
// first argument picks the kind): the loader must never panic, must
// classify every failure as ErrCorrupt, and anything it accepts must
// re-encode and re-load unchanged. The older-format fixtures seed it
// too, so a writer that drops what an older file carried fails here.
func FuzzRecordDecode(f *testing.F) {
	kinds := recordKinds(f)
	goods := make([][]byte, len(kinds))
	for i, k := range kinds {
		good, err := k.encode(k.sample)
		if err != nil {
			f.Fatal(err)
		}
		goods[i] = good
	}
	for i, good := range goods {
		which := uint8(i)
		f.Add(which, good)
		f.Add(which, []byte{})
		f.Add(which, good[:len(good)/2]) // torn write
		f.Add(which, goods[(i+1)%len(goods)])
		fixture, err := os.ReadFile(filepath.Join("testdata", kinds[i].name+".bin"))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(which, fixture)
		for _, bad := range kinds[i].refused {
			f.Add(which, bad)
		}
		for _, j := range []int{0, 5, len(good) / 2, len(good) - 1} {
			mut := append([]byte(nil), good...)
			mut[j] ^= 0x40
			f.Add(which, mut)
		}
	}
	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		k := kinds[int(which)%len(kinds)]
		got, err := k.decode(data)
		if err != nil {
			if !errors.Is(err, atomicwrite.ErrCorrupt) {
				t.Fatalf("%s: unclassified error %v", k.name, err)
			}
			return
		}
		requireRoundTrip(t, k, got)
	})
}

// requireRoundTrip re-encodes an accepted value and re-loads it, which
// must give the value back exactly. A lossy kind gets one cycle to reach
// its fixed point first.
func requireRoundTrip(t *testing.T, k recordKind, v any) {
	t.Helper()
	if k.lossy {
		v = reencode(t, k, v)
	}
	if !reflect.DeepEqual(reencode(t, k, v), v) {
		t.Fatalf("%s: a re-encode and re-load changed the value", k.name)
	}
}

func reencode(t *testing.T, k recordKind, v any) any {
	t.Helper()
	data, err := k.encode(v)
	if err != nil {
		t.Fatalf("%s: re-encoding an accepted value: %v", k.name, err)
	}
	again, err := k.decode(data)
	if err != nil {
		t.Fatalf("%s: re-loading a re-encoded value: %v", k.name, err)
	}
	return again
}
