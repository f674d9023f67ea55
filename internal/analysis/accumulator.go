package analysis

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"

	"certchains/internal/campus"
	"certchains/internal/certmodel"
	"certchains/internal/intercept"
	"certchains/internal/obs"
)

// Accumulator is the exported shard accumulator: the unit of work the
// distributed topology moves between processes. A worker observes its
// partition into one Accumulator, encodes the state, and ships it to the
// coordinator, which decodes, rebases sequence tags, merges, and finalizes —
// exactly the in-process shard lifecycle of RunParallel, stretched across a
// process boundary. Because the underlying merge is commutative and the
// encoding canonical, N worker processes, N goroutines, and one sequential
// pass all finalize byte-identically over the same observation stream.
//
// An Accumulator is not safe for concurrent use; give each goroutine its own
// and Merge.
type Accumulator struct {
	pr *partialReport
	// n counts every observation folded in — it is the next local sequence
	// number, and after OffsetSeq the count still holds (offsets shift tags,
	// not cardinality).
	n int64
}

// StateSchema and StateVersion stamp the encoded accumulator state. A
// coordinator built against a different codec revision must refuse a
// worker's partial rather than mis-merge it, so DecodeState rejects any
// other pair with a *certmodel.SchemaError.
const (
	StateSchema  = "certchains/analysis-partial"
	StateVersion = 1
)

// accumState is the sealed payload: the partial's canonical snapshot plus
// the deduplicated certificate table its chain keys reference, and the
// observation count the coordinator needs to rebase downstream partitions.
type accumState struct {
	Observations int64                    `json:"observations"`
	Certs        []certmodel.MetaSnapshot `json:"certs,omitempty"`
	Partial      *partialSnapshot         `json:"partial"`
}

// NewAccumulator creates an empty accumulator over the pipeline's
// components. Each accumulator carries its own CT-mismatch detector;
// detection is a pure function of the pipeline's DB and CT log, so separate
// detectors agree with a shared one.
func (p *Pipeline) NewAccumulator() *Accumulator {
	det := intercept.NewDetector(p.DB, p.CT)
	return &Accumulator{pr: p.newPartial(det)}
}

// Observe folds one observation in. Observations are sequence-tagged in
// arrival order starting at zero; when this accumulator covers a later slice
// of a larger input, rebase with OffsetSeq before merging.
func (a *Accumulator) Observe(o *campus.Observation) {
	a.pr.observe(int(a.n), o)
	a.n++
}

// Observations is the number of observations folded in so far.
func (a *Accumulator) Observations() int64 { return a.n }

// Merge folds another accumulator into this one. Merging is commutative and
// associative over rebased accumulators; the source is read, not mutated.
func (a *Accumulator) Merge(o *Accumulator) {
	a.pr.merge(o.pr)
	a.n += o.n
}

// OffsetSeq shifts every sequence tag by base, rebasing a partition-local
// accumulator into the global input order: partition i's base is the total
// observation count of partitions 0..i-1. Only the Figure 1 outlier list
// carries sequence tags, so the shift is O(outliers).
func (a *Accumulator) OffsetSeq(base int64) {
	for i := range a.pr.excluded {
		a.pr.excluded[i].seq += int(base)
	}
}

// Finalize runs the finishing passes and returns the completed report. The
// accumulator should not be used afterwards.
func (a *Accumulator) Finalize() *Report { return a.pr.finalize() }

// EncodeState serializes the accumulator under the versioned state schema.
// The encoding is canonical — equal accumulators encode byte-identically —
// so digests over shipped partials are stable.
func (a *Accumulator) EncodeState() ([]byte, error) {
	certs := make(map[certmodel.Fingerprint]*certmodel.Meta)
	st := accumState{
		Observations: a.n,
		Partial:      a.pr.snapshot(certs),
	}
	fps := make([]string, 0, len(certs))
	for fp := range certs {
		fps = append(fps, string(fp))
	}
	sort.Strings(fps)
	for _, fp := range fps {
		st.Certs = append(st.Certs, certs[certmodel.Fingerprint(fp)].Snapshot())
	}
	return certmodel.Seal(StateSchema, StateVersion, st)
}

// DecodeState rebuilds an accumulator from EncodeState bytes. The bytes
// cross a process boundary, so every malformation — wrong schema, truncated
// JSON, dangling chain references — degrades to an error, never a panic; a
// schema/version mismatch is a *certmodel.SchemaError.
func (p *Pipeline) DecodeState(data []byte) (*Accumulator, error) {
	payload, err := certmodel.Open(data, StateSchema, StateVersion)
	if err != nil {
		return nil, fmt.Errorf("analysis: decode state: %w", err)
	}
	var st accumState
	if err := json.Unmarshal(payload, &st); err != nil {
		return nil, fmt.Errorf("analysis: decode state: %w", err)
	}
	if st.Observations < 0 {
		return nil, fmt.Errorf("analysis: decode state: negative observation count %d", st.Observations)
	}
	table := make(map[certmodel.Fingerprint]*certmodel.Meta, len(st.Certs))
	for _, ms := range st.Certs {
		m := ms.Meta()
		if m.FP == "" {
			return nil, fmt.Errorf("analysis: decode state: certificate with empty fingerprint")
		}
		table[m.FP] = m
	}
	det := intercept.NewDetector(p.DB, p.CT)
	pr, err := p.restorePartial(st.Partial, det, func(fp certmodel.Fingerprint) *certmodel.Meta {
		return table[fp]
	})
	if err != nil {
		return nil, fmt.Errorf("analysis: decode state: %w", err)
	}
	return &Accumulator{pr: pr, n: st.Observations}, nil
}

// handoffBatch is the number of observations per worker handoff: RunParallel
// cuts its input into sub-slices this long and Rechunk groups a
// per-observation stream into batches this long. Batching only amortizes
// channel sends and never changes output; tests vary it through
// export_test.go to pin every size byte-identical.
var handoffBatch = 64

// Rechunk groups a per-observation stream into handoff batches for
// Accumulate, closing the batch channel once the stream closes.
func Rechunk(observations <-chan *campus.Observation) <-chan []*campus.Observation {
	size := handoffBatch
	// Two batches of slack let the producer fill the next batch while the
	// dispatcher hands off the previous one.
	batches := make(chan []*campus.Observation, 2)
	go func() {
		buf := make([]*campus.Observation, 0, size)
		for o := range observations {
			buf = append(buf, o)
			if len(buf) == size {
				batches <- buf
				buf = make([]*campus.Observation, 0, size)
			}
		}
		if len(buf) > 0 {
			batches <- buf
		}
		close(batches)
	}()
	return batches
}

// obsBatch is one worker handoff: a run of observations starting at global
// sequence number start.
type obsBatch struct {
	start int
	obs   []*campus.Observation
}

// Accumulate is the accumulation engine every runner shares: a dispatcher
// tags each incoming batch with its global sequence start, `workers`
// goroutines (0 or negative selects GOMAXPROCS) each fold the batches they
// receive into a private partial, and the partials merge into one
// unfinalized accumulator — what RunParallel and RunStream finalize and what
// a distributed worker ships upstream. Sequence tags follow the
// concatenation order of the batches and the merge is commutative, so the
// result finalizes byte-identically at any worker count, batch size, or
// schedule.
//
// Stage spans go to tracer, not Pipeline.Tracer, so a distributed worker can
// give each concurrently ingested partition its own span set. A nil tracer
// records nothing.
func (p *Pipeline) Accumulate(batches <-chan []*campus.Observation, workers int, tracer *obs.Tracer) *Accumulator {
	workers = normalizeWorkers(workers, -1)
	det := intercept.NewDetector(p.DB, p.CT)
	stage := tracer.Start("observe", "observe")

	// A few batches of slack per worker keep a worker that finishes a batch
	// from waiting on the dispatcher.
	work := make(chan obsBatch, 4*workers)
	// total is written only by the dispatcher, which exits before close(work);
	// every worker observes that close before wg.Done, so the read after
	// wg.Wait is ordered.
	var total int64
	go func() {
		seq := 0
		for b := range batches {
			if len(b) == 0 {
				continue
			}
			work <- obsBatch{start: seq, obs: b}
			seq += len(b)
		}
		total = int64(seq)
		close(work)
	}()

	partials := make([]*partialReport, workers)
	spans := make([]*obs.Span, workers)
	for w := 0; w < workers; w++ {
		spans[w] = tracer.Start("observe-shard", fmt.Sprintf("observe/shard%d", w)).SetTID(w) //certchain:coldpath once per shard at stage setup
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			pr := p.newPartial(det)
			for b := range work {
				for i, o := range b.obs {
					pr.observe(b.start+i, o)
				}
				spans[w].AddRecords(int64(len(b.obs)))
			}
			partials[w] = pr
			spans[w].End()
		}(w)
	}
	wg.Wait()
	stage.SetRecords(total)
	stage.End()
	return &Accumulator{pr: mergePartials(tracer, partials), n: total}
}

// mergePartials folds the partials into the first, in order (any order
// yields the same report), under a merge span. The span carries zero
// records — merging reduces state rather than consuming input — which keeps
// its deterministic-subset projection width-invariant even though a wider
// run merges more partials.
func mergePartials(tracer *obs.Tracer, partials []*partialReport) *partialReport {
	msp := tracer.Start("merge", "merge").Arg("partials", int64(len(partials)))
	defer msp.End()
	merged := partials[0]
	for _, pr := range partials[1:] {
		merged.merge(pr)
	}
	return merged
}
