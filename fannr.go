// Package fannr is a pure-Go library for flexible aggregate nearest
// neighbor queries in road networks (FANN_R), reproducing "Flexible
// Aggregate Nearest Neighbor Queries in Road Networks" (ICDE 2018).
//
// Given a road network G, data points P, query points Q, a flexibility
// φ ∈ (0,1] and an aggregate g ∈ {max, sum}, an FANN_R query returns the
// data point minimizing the aggregate network distance to its ⌈φ|Q|⌉
// nearest query points — e.g., the best place for a logistics center that
// only needs to supply half of the camps, or a meeting venue that only
// needs a quorum present.
//
// # Quickstart
//
//	g, _ := fannr.Generate(fannr.GenConfig{Nodes: 10000, Seed: 1})
//	gp := fannr.NewINE(g) // index-free g_φ engine
//	answers, _ := fannr.GD(g, gp, fannr.Query{
//		P: p, Q: q, Phi: 0.5, Agg: fannr.Max,
//	}, 1)
//	fmt.Println(answers[0].P, answers[0].Dist, answers[0].Subset)
//
// Algorithms: GD (enumerate P), RList (threshold algorithm), IERKNN
// (best-first over an R-tree on P), ExactMax (counter-based exact max)
// and APXSum (3-approximate sum); each takes the answer count k and
// returns the k best (k-FANN_R, §V). Engines: INE
// (index-free), point-to-point oracles (A*, hub labels, G-tree), and IER
// engines combining an R-tree over Q with any oracle.
//
// This root package is a facade re-exporting the implementation packages
// under internal/; see DESIGN.md for the architecture and EXPERIMENTS.md
// for the reproduced evaluation.
package fannr

import (
	"io"
	"time"

	"fannr/internal/binio"
	"fannr/internal/core"
	"fannr/internal/exp"
	"fannr/internal/graph"
	"fannr/internal/gtree"
	"fannr/internal/phl"
	"fannr/internal/rtree"
	"fannr/internal/server"
	"fannr/internal/sp"
	"fannr/internal/workload"
)

// Road-network substrate.
type (
	// Graph is an immutable road network (undirected, weighted, with
	// optional planar coordinates).
	Graph = graph.Graph
	// Builder constructs a Graph from nodes and edges.
	Builder = graph.Builder
	// Edge is an undirected weighted edge.
	Edge = graph.Edge
	// NodeID identifies a node; ids are dense in [0, NumNodes).
	NodeID = graph.NodeID
	// GenConfig controls the synthetic road-network generator.
	GenConfig = graph.GenConfig
)

// NewBuilder returns a builder for a graph with n nodes.
func NewBuilder(n int) *Builder { return graph.NewBuilder(n) }

// Generate builds a synthetic road network (jittered grid with highway
// overlay, reduced to its largest connected component).
func Generate(cfg GenConfig) (*Graph, error) { return graph.Generate(cfg) }

// WriteDIMACS writes a graph in DIMACS format.
func WriteDIMACS(g *Graph, gr, co io.Writer) error { return graph.WriteDIMACS(g, gr, co) }

// Projection maps coordinates into a new planar frame.
type Projection = graph.Projection

// EquirectangularFor derives the projection from a graph's coordinate
// bounding box (handles the DIMACS microdegree convention).
func EquirectangularFor(g *Graph) Projection { return graph.EquirectangularFor(g) }

// Reproject rebuilds g with every coordinate passed through proj,
// recalibrating the Euclidean lower bounds for the new frame.
func Reproject(g *Graph, proj Projection) (*Graph, error) { return graph.Reproject(g, proj) }

// Queries and answers.
type (
	// Query is an FANN_R query (P, Q, φ, g).
	Query = core.Query
	// Answer is the result triple (p*, Q*_φ, d*).
	Answer = core.Answer
	// Aggregate selects max or sum.
	Aggregate = core.Aggregate
	// GPhi computes the flexible aggregate function g_φ(p, Q).
	GPhi = core.GPhi
	// Oracle answers exact shortest-path distance queries.
	Oracle = core.Oracle
)

// Aggregates.
const (
	Max = core.Max
	Sum = core.Sum
)

// Error sentinels. Every algorithm failure wraps one of these, so callers
// classify with errors.Is instead of string matching.
var (
	// ErrNoResult is returned when no data point reaches ⌈φ|Q|⌉ query
	// points.
	ErrNoResult = core.ErrNoResult
	// ErrCanceled is returned when a query's Cancel hook (usually bound to
	// a context via Query.BindContext) fires mid-search.
	ErrCanceled = core.ErrCanceled
	// ErrInvalid wraps every query-validation failure (empty sets, φ out
	// of (0,1], node ids out of range, wrong aggregate for an algorithm).
	ErrInvalid = core.ErrInvalid
)

// FANN_R algorithms (see package core for the paper mapping). Each
// returns the k best answers in ascending order of distance.
var (
	// GD enumerates P, evaluating g_φ on every data point (§III-A).
	GD = core.GD
	// RList is the threshold algorithm over per-query-point queues (§III-B).
	RList = core.RList
	// IERKNN is the best-first IER-kNN framework (Algorithm 1).
	IERKNN = core.IERKNN
	// ExactMax is the counter-based exact algorithm for max (Algorithm 2).
	ExactMax = core.ExactMax
	// APXSum is the 3-approximation for sum (Algorithm 3).
	APXSum = core.APXSum
	// Brute is the unoptimized reference solver.
	Brute = core.Brute
	// APXSumRatioBound returns 2 when Q ⊆ P, else 3 (Theorems 1-2).
	APXSumRatioBound = core.APXSumRatioBound
	// Verify checks an Answer against Definition 2 by independent
	// computation.
	Verify = core.Verify

	// KBrute is the reference solver for the k best answers (§V).
	KBrute = core.KBrute

	// BuildPTree indexes P in an R-tree for IERKNN.
	BuildPTree = core.BuildPTree
	// OMP answers the optimal meeting point query (FANN_R over an
	// implicit P = V, φ = 1).
	OMP = core.OMP
	// FlexibleOMP is OMP with a flexibility parameter.
	FlexibleOMP = core.FlexibleOMP
)

// g_φ engines (Table I of the paper).
var (
	// NewINE returns the index-free incremental-network-expansion engine.
	NewINE = core.NewINE
	// NewOracleGPhi wraps any distance oracle as a g_φ engine.
	NewOracleGPhi = core.NewOracleGPhi
	// NewGTreeGPhi returns the occurrence-list kNN engine over a G-tree.
	NewGTreeGPhi = core.NewGTreeGPhi
	// NewIERGPhi combines an R-tree over Q with a distance oracle.
	NewIERGPhi = core.NewIERGPhi
)

// Distance oracles and indexes.
type (
	// PHLIndex is an exact 2-hop hub-label index (the paper's PHL role).
	PHLIndex = phl.Index
	// PHLOptions configures hub-label construction.
	PHLOptions = phl.Options
	// GTree is the G-tree road-network index.
	GTree = gtree.Tree
	// GTreeOptions configures G-tree construction.
	GTreeOptions = gtree.Options
	// RTree is a 2-D R-tree over points.
	RTree = rtree.Tree
)

// BuildPHL constructs hub labels for g.
func BuildPHL(g *Graph, opts PHLOptions) (*PHLIndex, error) { return phl.Build(g, opts) }

// BuildGTree constructs a G-tree for g.
func BuildGTree(g *Graph, opts GTreeOptions) (*GTree, error) { return gtree.Build(g, opts) }

// LoadOptions controls how LoadPHL and LoadGTree open a persisted
// index file: Mmap maps it read-only and points the index's slabs
// straight at the mapping (zero-copy, demand-paged — time to first query
// is independent of index size; the file must stay unmodified on disk
// for the index's lifetime, and Close unmaps it); Verify forces the
// per-section checksum pass even under Mmap, which heap loads always run.
type LoadOptions = binio.LoadOptions

// LoadPHL opens a hub-label index file written by PHLIndex.Save.
func LoadPHL(path string, opts LoadOptions) (*PHLIndex, error) { return phl.Load(path, opts) }

// LoadGTree opens a G-tree index file written by GTree.Save, reattaching
// it to the graph it was built on.
func LoadGTree(path string, g *Graph, opts LoadOptions) (*GTree, error) {
	return gtree.Load(path, g, opts)
}

// NewDijkstra returns a reusable single-source search engine.
func NewDijkstra(g *Graph) *sp.Dijkstra { return sp.NewDijkstra(g) }

// Workload generation (the paper's §VI-A factors).
type (
	// WorkloadGenerator draws P and Q sets over one network.
	WorkloadGenerator = workload.Generator
	// POILayer is a Table IV point-of-interest layer.
	POILayer = workload.POILayer
)

// NewWorkloadGenerator seeds a generator on g.
func NewWorkloadGenerator(g *Graph, seed int64) *WorkloadGenerator {
	return workload.NewGenerator(g, seed)
}

// FindPOILayer returns the Table IV layer with the given name.
func FindPOILayer(name string) (POILayer, error) { return workload.FindPOILayer(name) }

// LoadDataset materializes a Table III dataset at the given scale.
func LoadDataset(name string, scale float64) (*Graph, error) {
	return workload.LoadDataset(name, scale)
}

// HTTP query service.
type (
	// QueryServer serves FANN_R queries over HTTP (see internal/server
	// for the endpoint contract).
	QueryServer = server.Server
	// ServerOptions configures a server: the indexes it serves engines
	// over, admission limits, breakers, cache and logging.
	ServerOptions = server.Options
	// Indexes are the indexes a server serves over; every engine of the
	// catalogue they support is served.
	Indexes = core.Indexes
	// FANNRequest is the /fann request body.
	FANNRequest = server.FANNRequest
	// FANNResponse is the /fann response body.
	FANNResponse = server.FANNResponse
)

// NewQueryServer builds an HTTP query server over g.
func NewQueryServer(g *Graph, opts ServerOptions) (*QueryServer, error) {
	return server.New(g, opts)
}

// Experiments (every figure and table of the paper's evaluation).
type (
	// ExpConfig controls an experiment run.
	ExpConfig = exp.Config
	// ExpTable is a rendered experiment result.
	ExpTable = exp.Table
)

// RunExperiments regenerates the paper's figures and tables named by ids
// (e.g. "fig4a", "table5"; ExperimentIDs lists them), in order, over one
// dataset whose indexes are built at most once. each receives every
// experiment's tables and wall time, and, before the first experiment
// that needs the indexes, the id "env" with no tables and their build
// time.
func RunExperiments(ids []string, cfg ExpConfig, each func(id string, tables []*ExpTable, took time.Duration)) error {
	return exp.Run(ids, cfg, each)
}

// ExperimentIDs lists the available experiment ids.
func ExperimentIDs() []string { return exp.ExperimentIDs() }
