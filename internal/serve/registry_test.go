package serve

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"sherlock"
)

func TestKeyDeterminismAndSeparation(t *testing.T) {
	opts := testOptions()
	k1 := KeySource(kMux, opts)
	k2 := KeySource(kMux, opts)
	if k1 != k2 {
		t.Fatal("same source and options hashed to different keys")
	}
	if KeySource(kStage, opts) == k1 {
		t.Fatal("different sources hashed to the same key")
	}
	bigger := opts
	bigger.ArraySize = 256
	if KeySource(kMux, bigger) == k1 {
		t.Fatal("different array geometry hashed to the same key")
	}
	naive := opts
	naive.Mapper = sherlock.MapperNaive
	if KeySource(kMux, naive) == k1 {
		t.Fatal("different mapper hashed to the same key")
	}

	// Normalization: spelled-out defaults and zero-value defaults are the
	// same program.
	zero := sherlock.Options{Tech: sherlock.ReRAM}
	explicit := sherlock.Options{Tech: sherlock.ReRAM, ArraySize: 512, Arrays: 4}
	if KeySource(kMux, zero) != KeySource(kMux, explicit) {
		t.Fatal("normalized options hashed differently from explicit defaults")
	}

	if _, err := ParseKey(k1.String()); err != nil {
		t.Fatalf("round-tripping key text: %v", err)
	}
	if _, err := ParseKey("zz"); err == nil {
		t.Fatal("ParseKey accepted garbage")
	}
}

func TestKeyGraphMatchesUse(t *testing.T) {
	build := func() *sherlock.Graph {
		b := sherlock.NewBuilder()
		x := b.Input("a")
		y := b.Input("b")
		b.Output("out", b.Xor(b.And(x, y), b.Or(x, y)))
		return b.Graph()
	}
	opts := testOptions()
	if KeyGraph(build(), opts) != KeyGraph(build(), opts) {
		t.Fatal("identical graphs hashed to different keys")
	}
	b := sherlock.NewBuilder()
	b.Output("out", b.Xor(b.Input("a"), b.Input("b")))
	if KeyGraph(b.Graph(), opts) == KeyGraph(build(), opts) {
		t.Fatal("different graphs hashed to the same key")
	}
}

// TestKeyCoversEveryOption sets each field of sherlock.Options, one at a
// time, to a value its normalized default does not take and requires both
// KeySource and KeyGraph to move: a compile option left out of the hash
// would let the registry serve a program compiled under different options.
// A field of a kind this test cannot perturb fails it, so a new Options
// field is either hashed or deliberately handled here.
func TestKeyCoversEveryOption(t *testing.T) {
	b := sherlock.NewBuilder()
	b.Output("out", b.Xor(b.Input("a"), b.Input("b")))
	g := b.Graph()

	var base sherlock.Options
	def := reflect.ValueOf(base.Normalized())
	srcKey, graphKey := KeySource(kMux, base), KeyGraph(g, base)
	typ := def.Type()
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		o := base
		v := reflect.ValueOf(&o).Elem().Field(i)
		switch f.Type.Kind() {
		case reflect.Bool:
			v.SetBool(!def.Field(i).Bool())
		case reflect.Int:
			v.SetInt(def.Field(i).Int() + 1)
		case reflect.Float64:
			v.SetFloat(def.Field(i).Float() + 0.5)
		default:
			t.Fatalf("Options.%s has kind %v: teach this test (and writeOptions) about it", f.Name, f.Type.Kind())
		}
		if KeySource(kMux, o) == srcKey {
			t.Errorf("KeySource ignores Options.%s", f.Name)
		}
		if KeyGraph(g, o) == graphKey {
			t.Errorf("KeyGraph ignores Options.%s", f.Name)
		}
	}
}

// TestRegistrySingleflightHammer drives 64 goroutines at the registry with
// heavily overlapping keys and asserts each unique program compiled exactly
// once (misses == unique keys, everything else a hit or a coalesced wait),
// with every requester receiving the same resident entry.
func TestRegistrySingleflightHammer(t *testing.T) {
	reg := NewRegistry(RegistryConfig{})
	kernels := testKernels()
	opts := testOptions()

	const goroutines = 64
	const perG = 8
	entries := make([][]*Entry, goroutines)
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(gi)))
			for i := 0; i < perG; i++ {
				src := kernels[rng.Intn(len(kernels))]
				e, err := reg.CompileC(src, opts)
				if err != nil {
					errs <- fmt.Errorf("goroutine %d: %w", gi, err)
					return
				}
				entries[gi] = append(entries[gi], e)
			}
		}(gi)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Every goroutine that asked for a kernel must hold the same *Entry —
	// singleflight means one compile's result is shared, never duplicated.
	byKey := make(map[Key]*Entry)
	total := 0
	for _, got := range entries {
		total += len(got)
		for _, e := range got {
			if prev, ok := byKey[e.Key]; ok && prev != e {
				t.Fatalf("key %s resolved to two distinct entries", e.Key)
			}
			byKey[e.Key] = e
		}
	}
	st := reg.Stats()
	if int(st.Misses) != len(byKey) {
		t.Fatalf("misses = %d, want exactly one compile per unique key (%d)", st.Misses, len(byKey))
	}
	if got := int(st.Hits + st.Coalesced + st.Misses); got != total {
		t.Fatalf("hits+coalesced+misses = %d, want %d requests", got, total)
	}
	if int(st.Entries) != len(byKey) {
		t.Fatalf("resident entries = %d, want %d", st.Entries, len(byKey))
	}
}

// TestRegistryHitMissDeterminism pins that the hit path, the miss path,
// and a recompile after eviction all produce bit-identical outputs.
func TestRegistryHitMissDeterminism(t *testing.T) {
	reg := NewRegistry(RegistryConfig{})
	opts := testOptions()
	rng := rand.New(rand.NewSource(7))

	miss, err := reg.CompileC(kStage, opts)
	if err != nil {
		t.Fatal(err)
	}
	batch := randBatch(rng, miss.InputNames, 100)
	in, lanes := packWords(miss.InputNames, batch)
	want, err := miss.Compiled.RunBatchWords(in, lanes, nil, 0)
	if err != nil {
		t.Fatal(err)
	}

	hit, err := reg.CompileC(kStage, opts)
	if err != nil {
		t.Fatal(err)
	}
	if hit != miss {
		t.Fatal("hit returned a different entry than the original compile")
	}
	got, err := hit.Compiled.RunBatchWords(in, lanes, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	checkWordsEqual(t, "hit path", got, want)

	if !reg.Forget(miss.Key) {
		t.Fatal("Forget missed a resident key")
	}
	if _, ok := reg.Lookup(miss.Key); ok {
		t.Fatal("key still resident after Forget")
	}
	again, err := reg.CompileC(kStage, opts)
	if err != nil {
		t.Fatal(err)
	}
	if again == miss {
		t.Fatal("recompile after eviction returned the evicted pointer without compiling")
	}
	got2, err := again.Compiled.RunBatchWords(in, lanes, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	checkWordsEqual(t, "recompile path", got2, want)
}

// TestRegistryEvictionDuringExecution keeps one goroutine executing an
// entry while churning the registry hard enough to evict it many times
// over: entries are immutable, so the in-flight executions must keep
// producing correct outputs throughout.
func TestRegistryEvictionDuringExecution(t *testing.T) {
	reg := NewRegistry(RegistryConfig{MaxPrograms: 1})
	opts := testOptions()
	victim, err := reg.CompileC(kMaj, opts)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	batch := randBatch(rng, victim.InputNames, 130)
	in, lanes := packWords(victim.InputNames, batch)
	want, err := victim.Compiled.RunBatchWords(in, lanes, nil, 0)
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	execErr := make(chan error, 1)
	go func() {
		defer close(execErr)
		var out []uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			var err error
			out, err = victim.Compiled.RunBatchWords(in, lanes, out, 0)
			if err != nil {
				execErr <- err
				return
			}
			for i := range out {
				if out[i] != want[i] {
					execErr <- fmt.Errorf("in-flight output diverged at word %d after eviction", i)
					return
				}
			}
		}
	}()

	// Churn: each distinct kernel compile evicts the previous resident.
	// kMaj itself stays out of the churn set so the victim's key cannot
	// come back.
	kernels := []string{kMux, kStage, kParity}
	for round := 0; round < 6; round++ {
		for _, src := range kernels {
			if _, err := reg.CompileC(src, opts); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	if err := <-execErr; err != nil {
		t.Fatal(err)
	}
	st := reg.Stats()
	if st.Entries != 1 {
		t.Fatalf("MaxPrograms=1 registry holds %d entries", st.Entries)
	}
	if st.Evictions == 0 {
		t.Fatal("churn produced no evictions")
	}
	if _, ok := reg.Lookup(victim.Key); ok {
		t.Fatal("victim still resident after churn past capacity")
	}
}

func TestRegistryErrorCached(t *testing.T) {
	reg := NewRegistry(RegistryConfig{})
	const bad = `void broken(word a, word *out) { *out = a & ; }`
	if _, err := reg.CompileC(bad, testOptions()); err == nil {
		t.Fatal("compile of malformed kernel succeeded")
	}
	if _, err := reg.CompileC(bad, testOptions()); err == nil {
		t.Fatal("cached error path returned success")
	}
	st := reg.Stats()
	if st.Misses != 1 {
		t.Fatalf("failed compile ran %d times, want the error cached after 1", st.Misses)
	}
}
