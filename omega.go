// Package omega is a Go implementation of the Omega system from
// "Implementing Flexible Operators for Regular Path Queries" (Selmer,
// Poulovassilis, Wood — EDBT/ICDT 2015 workshops, GraphQ).
//
// Omega evaluates conjunctive regular path (CRP) queries over directed
// edge-labelled graphs and extends them with two flexible operators:
//
//   - APPROX — approximate matching by weighted edit operations on the
//     regular expression (insertion, deletion, substitution of edge labels);
//   - RELAX — ontology-driven relaxation using RDFS inference (replace a
//     class/property by a superclass/superproperty; replace a property by a
//     type edge to its domain or range class).
//
// Answers are returned incrementally in non-decreasing distance from the
// original query.
//
// # Quick start
//
//	b := omega.NewGraphBuilder()
//	_ = b.AddTriple("alice", "knows", "bob")
//	_ = b.AddTriple("bob", "knows", "carol")
//	g := b.Freeze()
//
//	eng := omega.NewEngine(g, nil)
//	rows, _ := eng.QueryText(`(?X) <- (alice, knows+, ?X)`)
//	for {
//		row, ok, _ := rows.Next()
//		if !ok {
//			break
//		}
//		fmt.Println(row.Labels, row.Dist)
//	}
//
// # Serving
//
// For concurrent serving, compile once with Engine.Prepare (or PrepareText)
// and execute per request with PreparedQuery.Exec, which takes a
// context.Context for cancellation and per-call ExecOptions (Limit, MaxDist,
// MaxTuples, Mode override). Exec returns a *Rows that must be Closed when
// abandoned before exhaustion, so disk-backed evaluation state is released
// deterministically:
//
//	pq, _ := eng.PrepareText(`(?X) <- APPROX (alice, knows+, ?X)`)
//	rows, _ := pq.Exec(ctx, omega.ExecOptions{Limit: 100})
//	defer rows.Close()
//
// See the examples directory for end-to-end programs, DESIGN.md for the
// architecture, and EXPERIMENTS.md for the reproduction of the paper's
// performance study.
package omega

import (
	"flag"
	"fmt"
	"io"
	"strings"
	"time"

	"omega/internal/automaton"
	"omega/internal/core"
	"omega/internal/graph"
	"omega/internal/l4all"
	"omega/internal/obs"
	"omega/internal/ontology"
	"omega/internal/query"
	"omega/internal/rpq"
	"omega/internal/yago"
)

// Re-exported core types. The implementation lives in internal packages;
// these aliases are the supported public surface.
type (
	// Graph is an immutable, frozen graph store.
	Graph = graph.Graph
	// GraphBuilder accumulates nodes and edges; Freeze yields a Graph.
	GraphBuilder = graph.Builder
	// NodeID identifies a node of a frozen Graph.
	NodeID = graph.NodeID
	// Ontology holds subclass/subproperty hierarchies with domains/ranges.
	Ontology = ontology.Ontology
	// Query is a parsed conjunctive regular path query.
	Query = core.Query
	// Conjunct is one body atom of a Query.
	Conjunct = core.Conjunct
	// Term is a conjunct endpoint: variable or constant.
	Term = core.Term
	// Options configures evaluation (costs, batching, optimisations). These
	// are engine-level knobs, fixed when a query is prepared; the per-call
	// knobs live in ExecOptions.
	Options = core.Options
	// ExecOptions are the per-execution knobs of a prepared query: Limit,
	// MaxDist, MaxTuples override, and Mode override. See the core type for
	// the knob-by-knob contract.
	ExecOptions = core.ExecOptions
	// Mode selects EXACT, APPROX, RELAX or FLEX evaluation of a conjunct.
	Mode = automaton.Mode
	// EditCosts configures APPROX (insertion/deletion/substitution).
	EditCosts = automaton.EditCosts
	// RelaxCosts configures RELAX (β for rule i, γ for rule ii).
	RelaxCosts = automaton.RelaxCosts
	// QueryAnswer is a single result row (head bindings + total distance).
	QueryAnswer = core.QueryAnswer
	// QueryIterator yields QueryAnswers in non-decreasing distance.
	QueryIterator = core.QueryIterator
	// Stats carries evaluation counters (tuples, visited size, phases).
	Stats = core.Stats
	// EvalPool recycles per-execution evaluator state across requests so
	// steady-state serving allocates near zero; see NewEvalPool.
	EvalPool = core.EvalPool
	// PoolStats reports EvalPool effectiveness counters.
	PoolStats = core.PoolStats
	// MemGauge aggregates an execution's accounted resident bytes and
	// carries its memory watermarks; see ExecOptions.Mem and NewMemGauge.
	MemGauge = core.MemGauge
	// Trace records a request's phase spans; see ExecOptions.Trace and
	// NewTrace. All methods are safe on a nil *Trace, and an execution
	// without one pays a single nil check per instrumented site.
	Trace = obs.Trace
	// TraceSummary is a rendered span tree (Rows.TraceSummary); its Render
	// method writes the indented text form, and it marshals to JSON for the
	// serving layer's trace=1 responses.
	TraceSummary = obs.Summary
	// TraceSpan is one node of a TraceSummary's span tree.
	TraceSpan = obs.SpanNode
	// Backend selects the evaluation engine: ranked GetNext (the paper's
	// machinery) or the bulk set-semantics backend for exhaustive exact
	// scans. See Options.Backend and ExecOptions.Backend.
	Backend = core.Backend
	// PathExpr is a parsed regular path expression.
	PathExpr = rpq.Expr
)

// Evaluation modes.
const (
	// Exact evaluates the query as written.
	Exact = automaton.Exact
	// Approx applies the edit-distance APPROX operator.
	Approx = automaton.Approx
	// Relax applies the ontology-driven RELAX operator.
	Relax = automaton.Relax
	// Flex applies both (extension beyond the paper).
	Flex = automaton.Flex
)

// Evaluation backends (Options.Backend / ExecOptions.Backend).
const (
	// BackendAuto (the zero value) lets the planner choose per conjunct:
	// bulk for exhaustive zero-cost exact scans whose seed population makes
	// word-parallelism pay, ranked otherwise. Explain shows the decision.
	BackendAuto = core.BackendAuto
	// BackendRanked forces the ranked GetNext machinery.
	BackendRanked = core.BackendRanked
	// BackendBulk forces the bulk set-semantics engine where eligible;
	// ineligible conjuncts fall back to ranked (Stats.Backend reports what
	// ran).
	BackendBulk = core.BackendBulk
)

// ParseBackend parses "auto", "ranked" or "bulk".
func ParseBackend(s string) (Backend, error) { return core.ParseBackend(s) }

// KnobError is a validation failure for one execution knob from the canonical
// knob registry (ExecOptions.ApplyParams, BindExecFlags). Every surface —
// HTTP 400 bodies, CLI flag errors — reports the same shape, naming the knob.
type KnobError = core.KnobError

// ExecFlags holds the shared execution-knob flags bound by BindExecFlags;
// Apply routes the parsed values through the registry's validators onto an
// ExecOptions.
type ExecFlags = core.ExecFlags

// BindExecFlags registers the shared execution knobs (mode, limit, maxdist,
// max-tuples, backend, soft-mem, hard-mem, parallel — or the named subset) as
// flags on fs with the registry's canonical spellings and help text.
// Per-binary defaults come pre-rendered in defaults, keyed by HTTP parameter
// name, and pass through the same validation as any other value.
func BindExecFlags(fs *flag.FlagSet, defaults map[string]string, names ...string) *ExecFlags {
	return core.BindExecFlags(fs, defaults, names...)
}

// ParseMode parses a mode knob value: exact, approx, relax or flex
// (case-insensitive). The error, like every registry error, is a *KnobError.
func ParseMode(s string) (Mode, error) { return core.ParseMode(s) }

// ParseTimeout parses the request-level timeout knob (Go duration syntax,
// strictly positive).
func ParseTimeout(v string) (time.Duration, error) { return core.ParseTimeout(v) }

// Direction selects which incident edges to follow in Graph traversal
// helpers such as Graph.Neighbors.
type Direction = graph.Direction

// LabelID identifies an interned edge label of a Graph.
type LabelID = graph.LabelID

// Edge directions.
const (
	// Out follows edges from source to target.
	Out = graph.Out
	// In follows edges from target to source.
	In = graph.In
	// Both follows edges in either direction.
	Both = graph.Both
)

// InvalidNode is returned by lookups that find no node.
const InvalidNode = graph.InvalidNode

// ErrTupleBudget is returned when evaluation exceeds the tuple budget
// (Options.MaxTuples, or ExecOptions.MaxTuples for one execution).
var ErrTupleBudget = core.ErrTupleBudget

// ErrCanceled is returned by Rows.Next when the execution's context is
// canceled. It wraps context.Canceled, so errors.Is(err, context.Canceled)
// also holds.
var ErrCanceled = core.ErrCanceled

// ErrDeadline is returned by Rows.Next when the execution's context passes
// its deadline. It wraps context.DeadlineExceeded.
var ErrDeadline = core.ErrDeadline

// ErrClosed is returned by Rows.Next after Rows.Close.
var ErrClosed = core.ErrClosed

// ErrSpill is the typed root of disk I/O failures in spilling executions
// (Options.SpillThreshold > 0): create, write, read and remove failures all
// surface through the Rows sticky-error contract wrapping it, the execution's
// spill directory is cleaned up on release, and any pooled evaluator state is
// discarded rather than recycled. An execution that failed with ErrSpill is
// over; retrying means starting a fresh execution.
var ErrSpill = core.ErrSpill

// ErrMemBudget is returned by Rows.Next when an execution crosses its hard
// memory watermark (ExecOptions.HardMemBytes), or when the serving layer's
// memory broker aborts it as the largest-footprint victim under global
// pressure. The execution is over and its pooled evaluator state is discarded
// rather than recycled (shedding the capacity is the point); re-running the
// query with a higher budget — or after load subsides — starts fresh. The
// soft watermark (SoftMemBytes) never produces this error: it degrades the
// execution to disk spilling and keeps it streaming.
var ErrMemBudget = core.ErrMemBudget

// ModeOverride is a convenience for ExecOptions.Mode: it returns a pointer to
// mode, overriding every conjunct's mode for one execution.
func ModeOverride(mode Mode) *Mode { m := mode; return &m }

// NewEvalPool returns an evaluator-state pool retaining at most max idle
// state bundles (0 picks a default). Thread it through ExecOptions.Pool so
// repeated executions reuse the grown dictionaries, hash tables and scratch
// buffers of earlier requests instead of reallocating and regrowing them;
// pooled emission is byte-identical to fresh. One pool may serve any number
// of prepared queries over any number of graphs, from any number of
// goroutines.
func NewEvalPool(max int) *EvalPool { return core.NewEvalPool(max) }

// NewMemGauge returns a memory gauge with the given soft and hard watermarks
// (0 disables either). Pass it via ExecOptions.Mem when an external observer
// — like the serving layer's memory broker — needs to watch an execution's
// live bytes; plain callers set ExecOptions.SoftMemBytes/HardMemBytes and let
// Exec create the gauge internally.
func NewMemGauge(soft, hard int64) *MemGauge { return core.NewMemGauge(soft, hard) }

// NewTrace starts a request trace whose root span opens immediately. Pass it
// via ExecOptions.Trace to record the execution's phase spans, and read the
// result with Rows.TraceSummary. id becomes the trace's request ID; an empty
// id generates a fresh one.
func NewTrace(id string) *Trace { return obs.NewTrace(id) }

// NewGraphBuilder returns an empty graph builder.
func NewGraphBuilder() *GraphBuilder { return graph.NewBuilder() }

// NewOntology returns an empty ontology.
func NewOntology() *Ontology { return ontology.New() }

// ParseQuery parses the textual CRP query form, e.g.
//
//	(?X) <- APPROX (UK, isLocatedIn-.gradFrom, ?X)
func ParseQuery(text string) (*Query, error) { return query.Parse(text) }

// ParsePath parses a regular path expression, e.g. "isLocatedIn-.gradFrom".
func ParsePath(text string) (*PathExpr, error) { return rpq.Parse(text) }

// Open initialises evaluation of q and returns an iterator over its answers
// in non-decreasing total distance.
func Open(g *Graph, ont *Ontology, q *Query, opts Options) (QueryIterator, error) {
	return core.OpenQuery(g, ont, q, opts)
}

// SaveGraph / LoadGraph serialise graphs in the omega-graph v1 text format.
func SaveGraph(w io.Writer, g *Graph) error { return graph.Save(w, g) }
func LoadGraph(r io.Reader) (*Graph, error) { return graph.Load(r) }

// SaveOntology / LoadOntology serialise ontologies in the omega-ontology v1
// text format.
func SaveOntology(w io.Writer, o *Ontology) error { return ontology.Save(w, o) }
func LoadOntology(r io.Reader) (*Ontology, error) { return ontology.Load(r) }

// LoadNTriples imports an RDF N-Triples document into the builder, returning
// the number of triples read. IRIs are shortened to their local names unless
// keepIRIs is set; rdf:type maps onto the reserved `type` edge label.
func LoadNTriples(r io.Reader, b *GraphBuilder, keepIRIs bool) (int, error) {
	return graph.LoadNTriples(r, b, keepIRIs)
}

// NamedQuery is a benchmark query with an identifier.
type NamedQuery struct {
	ID   string
	Text string
}

// GenerateL4All builds the L4All data graph of §4.1 at scale "L1".."L4".
func GenerateL4All(scale string) (*Graph, *Ontology, error) {
	for _, s := range l4all.Scales() {
		if strings.EqualFold(s.String(), scale) {
			g, o := l4all.Generate(s)
			return g, o, nil
		}
	}
	return nil, nil, fmt.Errorf("omega: unknown L4All scale %q (want L1..L4)", scale)
}

// L4AllQueries returns the 12 queries of Figure 4.
func L4AllQueries() []NamedQuery {
	var out []NamedQuery
	for _, q := range l4all.Queries() {
		out = append(out, NamedQuery{ID: q.ID, Text: q.Text})
	}
	return out
}

// GenerateYAGO builds the YAGO-shaped data graph of §4.2, scaled by factor
// (1.0 is the laptop-sized default; the paper's dump is roughly 100×).
func GenerateYAGO(factor float64) (*Graph, *Ontology) {
	cfg := yago.DefaultConfig()
	if factor > 0 && factor != 1.0 {
		cfg = cfg.Scaled(factor)
	}
	return yago.Generate(cfg)
}

// YAGOQueries returns the 9 queries of Figure 9.
func YAGOQueries() []NamedQuery {
	var out []NamedQuery
	for _, q := range yago.Queries() {
		out = append(out, NamedQuery{ID: q.ID, Text: q.Text})
	}
	return out
}
