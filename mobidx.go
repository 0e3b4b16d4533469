// Package mobidx indexes mobile objects — points moving on a line or in
// the plane with piecewise-constant velocity — and answers MOR (Moving
// Objects Range) queries about the future: "report every object inside
// spatial range R at some instant in [t1, t2], given current motion
// information". It is a from-scratch implementation of Kollios, Gunopulos
// and Tsotras, "On Indexing Mobile Objects" (PODS 1999).
//
// Everything runs on an explicit external-memory model: indexes read and
// write fixed-size pages through a Store, and performance is measured in
// counted page I/Os, the metric of the paper's evaluation.
//
// # One-dimensional indexes
//
// Four interchangeable implementations of Index1D:
//
//   - NewDualBPlusIndex — the paper's practical contribution (§3.5.2):
//     Hough-Y dual points in c observation B+-trees plus subterrain
//     interval indexes; expected-logarithmic queries, linear space.
//   - NewKDIndex — Hough-X dual points in a paged k-d tree point access
//     method (§3.5.1), answering the Proposition 1 wedge query.
//   - NewPartitionTreeIndex — the (almost) worst-case-optimal simplex
//     range searching structure (§3.4): O(n^(1/2+ε) + k) I/Os.
//   - NewRStarIndex — the traditional baseline (§3.1): trajectory line
//     segments in an R*-tree.
//
// An object's change of motion is always Delete(old) followed by
// Insert(new), exactly as in the paper's update model.
//
// # Bounded-horizon instant queries
//
// kinetic.Structure (via NewKineticStructure / NewStaggeredKinetic)
// answers single-instant MOR1 queries within a bounded future window in
// O(log_B(n+m)) I/Os (§3.6, Theorem 2), where m counts object overtakes.
//
// # Continuous queries
//
// NewSubscriptionEngine maintains standing MOR queries incrementally: the
// queries themselves are indexed in dual space, each motion update probes
// that query index for exactly the affected subscriptions, and kinetic
// certificates cover the boundary crossings between updates. Typed
// enter/leave deltas replace re-execution.
//
// # Two dimensions
//
// New2DKDIndex and New2DDecomposedIndex implement §4.2 (free movement in
// the plane, via the 4-dimensional dual); NewRouteNetwork implements §4.1
// (movement restricted to a network of routes — the "1.5-dimensional"
// problem).
//
// # Quick start
//
//	store := mobidx.NewMemStore(4096)
//	idx, _ := mobidx.NewDualBPlusIndex(store, mobidx.DualBPlusConfig{
//		Terrain: mobidx.Terrain{YMax: 1000, VMin: 0.16, VMax: 1.66},
//		C:       4,
//	})
//	_ = idx.Insert(mobidx.Motion{OID: 1, Y0: 250, T0: 0, V: 1.2})
//	_ = idx.Query(mobidx.Query{Y1: 300, Y2: 400, T1: 50, T2: 80},
//		func(id mobidx.OID) { fmt.Println("will be there:", id) })
package mobidx

import (
	"mobidx/internal/bptree"
	"mobidx/internal/core"
	"mobidx/internal/dual"
	"mobidx/internal/geom"
	"mobidx/internal/kinetic"
	"mobidx/internal/pager"
	"mobidx/internal/route"
	"mobidx/internal/subscribe"
	"mobidx/internal/twod"
)

// Core model types.
type (
	// OID identifies a mobile object.
	OID = dual.OID
	// Motion is one object's linear motion on a line: position Y0 at time
	// T0, velocity V.
	Motion = dual.Motion
	// Query is the one-dimensional MOR query: inside [Y1, Y2] at some
	// instant of [T1, T2].
	Query = dual.MORQuery
	// Terrain bounds the one-dimensional world and its speed band.
	Terrain = dual.Terrain
	// Index1D is the common interface of the one-dimensional indexes.
	Index1D = core.Index1D
)

// Typed admission failures: a motion or query an index refuses (NaN or
// ±Inf fields, a speed outside the terrain's band, a position off the
// terrain, a reversed range) fails with an error matching one of these
// under errors.Is.
var (
	ErrInvalidMotion = core.ErrInvalidMotion
	ErrInvalidQuery  = core.ErrInvalidQuery
)

// Storage types: all indexes speak to pages through a Store.
type (
	// Store is the external-memory page store abstraction.
	Store = pager.Store
	// Stats counts a store's I/O traffic.
	Stats = pager.Stats
	// PageID identifies a page.
	PageID = pager.PageID
)

// NewMemStore returns an in-memory page store (I/Os are counted, not
// performed) with the given page size; 0 selects 4096, the page size of
// the paper's experiments.
func NewMemStore(pageSize int) *pager.MemStore { return pager.NewMemStore(pageSize) }

// NewFileStore returns a page store backed by a file at path. Every page
// on disk ends in a CRC-32C trailer, so a read of a page the media tore or
// corrupted fails with ErrPageCorrupt instead of decoding garbage.
func NewFileStore(path string, pageSize int) (*pager.FileStore, error) {
	return pager.NewFileStore(path, pageSize)
}

// NewBufferedStore wraps a store with an exact LRU pool of the given
// capacity (the paper buffers a root-to-leaf path, 3-4 pages). Writes go
// through to the store; a capacity of zero caches nothing.
func NewBufferedStore(under Store, capacity int) *pager.Buffered {
	return pager.NewBuffered(under, capacity)
}

// OpenFileStore reopens a file store previously written by NewFileStore
// and synced (or cleanly closed), recovering the page allocator, free
// list and user metadata from the checksummed meta page.
func OpenFileStore(path string) (*pager.FileStore, error) {
	return pager.OpenFileStore(path)
}

// Robustness layer: deterministic fault injection for testing the
// structures above a store, and the typed failures a store reports.
// Checksums need no layer of their own: FileStore verifies every page it
// reads.
type (
	// FaultConfig configures deterministic fault injection.
	FaultConfig = pager.FaultConfig
	// OpFaults sets the failure schedule for one operation class.
	OpFaults = pager.OpFaults
	// FaultCounters reports operations seen and faults injected.
	FaultCounters = pager.FaultCounters
)

// Typed failures of the robustness layer.
var (
	// ErrInjected marks an artificially injected fault.
	ErrInjected = pager.ErrInjected
	// ErrTransient marks a fault that may succeed if retried.
	ErrTransient = pager.ErrTransient
	// ErrPageCorrupt marks a page whose checksum did not verify.
	ErrPageCorrupt = pager.ErrPageCorrupt
)

// IsTransient reports whether err is worth retrying.
func IsTransient(err error) bool { return pager.IsTransient(err) }

// NewFaultStore wraps a store with deterministic, seeded fault injection —
// the test harness for everything above it.
func NewFaultStore(under Store, cfg FaultConfig) *pager.FaultStore {
	return pager.NewFaultStore(under, cfg)
}

// Write-ahead logging: OpenWALStore wraps any Store so multi-page updates
// (a B+-tree split, a whole kinetic build) commit atomically. Writes
// inside a Begin/Commit batch reach the append-only log first; crash
// recovery replays committed batches and discards torn tails, so a
// reopened store shows every committed batch and nothing else.
type (
	// WALStore is the write-ahead-logged store.
	WALStore = pager.WALStore
	// LogFile is the append-only device a WALStore logs to.
	LogFile = pager.LogFile
	// Batcher is implemented by stores with atomic Begin/Commit/Rollback
	// batches (WALStore, and Buffered when its underlying store batches).
	Batcher = pager.Batcher
)

// Typed failures of the WAL layer.
var (
	// ErrWALCorrupt marks a log whose contents fail validation beyond
	// what clean truncation can repair.
	ErrWALCorrupt = pager.ErrWALCorrupt
	// ErrWALReplay marks a replay that diverged from the base store.
	ErrWALReplay = pager.ErrWALReplay
	// ErrBatchOpen / ErrNoBatch / ErrBatchAborted type batch misuse.
	ErrBatchOpen    = pager.ErrBatchOpen
	ErrNoBatch      = pager.ErrNoBatch
	ErrBatchAborted = pager.ErrBatchAborted
	// ErrStoreFailed marks a store poisoned by a failure after a batch was
	// published (a failed log sync, or a failed apply); reopen it to
	// recover.
	ErrStoreFailed = pager.ErrStoreFailed
	// ErrDoubleFree and ErrReservedPage type invalid frees.
	ErrDoubleFree   = pager.ErrDoubleFree
	ErrReservedPage = pager.ErrReservedPage
)

// OpenWALStore opens (or recovers) a write-ahead-logged store over base
// and log. On a non-empty log it verifies the header, truncates any torn
// or stale tail, and replays committed batches newer than the checkpoint
// watermark. It takes no configuration: a writer bounds the log with
// WALStore.CheckpointIfDue after each commit.
func OpenWALStore(base Store, log LogFile) (*WALStore, error) {
	return pager.OpenWALStore(base, log, pager.WALConfig{})
}

// NewMemLog returns an empty in-memory log device.
func NewMemLog() *pager.MemLog { return pager.NewMemLog() }

// OpenFileLog opens (creating if absent) a file-backed log device.
func OpenFileLog(path string) (*pager.FileLog, error) { return pager.OpenFileLog(path) }

// RunBatch runs fn inside a Begin/Commit batch when the store supports
// batching (rolling back if fn fails), and plainly otherwise. The index
// structures use it around every multi-page mutation.
func RunBatch(s Store, fn func() error) error { return pager.RunBatch(s, fn) }

// Parallel query serving. An Executor fans a query's independent
// subqueries — the Dual-B+ decomposition's per-subterrain scans, the 2D
// methods' per-structure or per-axis scans — across a bounded pool of
// goroutines; results are merged deterministically, so the answer is
// byte-identical at every worker count. See QueryParallelCtx on the Dual-B+
// and 2D indexes. Serving concurrency (many queries against one index,
// interleaved with updates) is the caller's readers-writer latch: queries
// under RLock, updates under Lock.
type (
	// Executor bounds concurrent subquery execution.
	Executor = core.Executor
)

// NewExecutor returns an executor running at most workers subqueries
// concurrently; workers <= 0 selects GOMAXPROCS, workers == 1 runs
// inline with no goroutines.
func NewExecutor(workers int) *Executor { return core.NewExecutor(workers) }

// Record precision of the B+-tree based structures.
const (
	// WideRecords stores 8-byte keys (exact float64 round trips).
	WideRecords = bptree.Wide
	// CompactRecords stores 4-byte keys — the paper's 12-byte records,
	// giving page capacity B=341 at 4096-byte pages.
	CompactRecords = bptree.Compact
)

// One-dimensional index configurations.
type (
	// DualBPlusConfig configures the §3.5.2 approximation method.
	DualBPlusConfig = core.DualBPlusConfig
	// KDConfig configures the §3.5.1 k-d point access method.
	KDConfig = core.KDDualConfig
	// RStarConfig configures the §3.1 R*-tree baseline.
	RStarConfig = core.RStarSegConfig
	// PartitionTreeConfig configures the §3.4 partition tree.
	PartitionTreeConfig = core.PartTreeDualConfig
)

// NewDualBPlusIndex creates the Dual-B+ approximation index (§3.5.2).
func NewDualBPlusIndex(store Store, cfg DualBPlusConfig) (*core.DualBPlus, error) {
	return core.NewDualBPlus(store, cfg)
}

// DualMeta is the persistence metadata of a Dual-B+ index: tree roots,
// heights and sizes per rotation generation, obtained from the index's
// Meta method. It is valid until the next mutating operation and must be
// persisted in the same atomic batch as the mutation that produced it
// (e.g. inside the RunBatch that applied the writes), or crash recovery
// would pair old roots with new pages.
type DualMeta = core.DualMeta

// AttachDualBPlusIndex reattaches a Dual-B+ index previously built in
// store (same page size, terrain, c and codec) from its persisted Meta —
// typically after the store was recovered by OpenWALStore. No logical
// replay happens: every tree root is read and validated, so corrupted or
// stale metadata surfaces here instead of as a wrong answer later.
func AttachDualBPlusIndex(store Store, cfg DualBPlusConfig, m DualMeta) (*core.DualBPlus, error) {
	return core.AttachDualBPlus(store, cfg, m)
}

// NewKDIndex creates the k-d dual index (§3.5.1).
func NewKDIndex(store Store, cfg KDConfig) (*core.HoughXDual, error) {
	return core.NewKDDual(store, cfg)
}

// NewRStarIndex creates the R*-tree trajectory-segment baseline (§3.1).
func NewRStarIndex(store Store, cfg RStarConfig) (*core.RStarSeg, error) {
	return core.NewRStarSeg(store, cfg)
}

// NewPartitionTreeIndex creates the partition-tree index (§3.4).
func NewPartitionTreeIndex(store Store, cfg PartitionTreeConfig) (*core.HoughXDual, error) {
	return core.NewPartTreeDual(store, cfg)
}

// SpeedPartitionedConfig configures the slow/moving hybrid index.
type SpeedPartitionedConfig = core.SpeedPartitionedConfig

// NewSpeedPartitionedIndex wraps a moving-object index with the paper's §3
// partitioning: objects slower than the cutoff (v ≈ 0) live in a plain
// B+-tree over positions — for them the problem degenerates to standard
// one-dimensional range searching — while moving objects go to the wrapped
// index.
func NewSpeedPartitionedIndex(store Store, cfg SpeedPartitionedConfig, moving Index1D) (*core.SpeedPartitioned, error) {
	return core.NewSpeedPartitioned(store, cfg, moving)
}

// NewHistory creates an append-only trajectory archive answering
// historical MOR queries ("who was inside R during the past window
// [t1, t2]?") — the §7 extension. Record motion changes with Begin and
// departures with End; query the past with QueryPast.
func NewHistory(store Store, terrain Terrain) (*core.History, error) {
	return core.NewHistory(store, terrain)
}

// Kinetic (bounded-horizon) structures of §3.6.
type (
	// KineticObject is an object snapshot for the kinetic structure.
	KineticObject = kinetic.Object
	// KineticStructure answers instant queries within a fixed window.
	KineticStructure = kinetic.Structure
	// StaggeredKinetic keeps a window of length T always covered.
	StaggeredKinetic = kinetic.Staggered
	// Crossing is one overtake event between two objects.
	Crossing = kinetic.Crossing
)

// NewKineticStructure builds the §3.6 structure answering instant queries
// for tStart ≤ t ≤ tStart+horizon against the given object snapshot.
func NewKineticStructure(store Store, objs []KineticObject, tStart, horizon float64) (*KineticStructure, error) {
	return kinetic.Build(store, objs, tStart, horizon)
}

// NewStaggeredKinetic creates the staggered wrapper that keeps any instant
// within T of "now" covered by rebuilding every T.
func NewStaggeredKinetic(store Store, T float64) (*StaggeredKinetic, error) {
	return kinetic.NewStaggered(store, T)
}

// Crossings enumerates all overtakes among objs within (tStart,
// tStart+horizon) — Lemma 3.
func Crossings(objs []KineticObject, tStart, horizon float64) []Crossing {
	return kinetic.Crossings(objs, tStart, horizon)
}

// Continuous queries: standing MOR queries maintained incrementally. A
// subscription watches a spatial range through a sliding time window; the
// engine indexes the standing queries themselves in dual space, probes
// that query index on each motion update to find exactly the affected
// subscriptions, and schedules kinetic certificates for the future
// instants at which a moving object crosses a standing query's window
// boundary — so membership deltas flow without ever re-running a query.
// Accumulated deltas reconstruct, at every checkpoint, byte-identically
// the answer of a one-shot re-run.
type (
	// SubscriptionEngine maintains standing queries over motion updates.
	SubscriptionEngine = subscribe.Engine
	// SubscribeConfig configures a subscription engine.
	SubscribeConfig = subscribe.Config
	// SubID identifies a subscription within one engine.
	SubID = subscribe.SubID
	// SubDelta is one membership transition of a subscription's answer.
	SubDelta = subscribe.Delta
	// SubKind is the type of a membership delta (SubEnter or SubLeave).
	SubKind = subscribe.Kind
	// SubOp is one motion mutation fed to a subscription engine.
	SubOp = subscribe.Op
	// SubscribeStats counts a subscription engine's work.
	SubscribeStats = subscribe.Stats
)

// Membership delta kinds.
const (
	// SubEnter reports an object joining a subscription's answer set.
	SubEnter = subscribe.Enter
	// SubLeave reports an object dropping out of it.
	SubLeave = subscribe.Leave
)

// Typed failures of the subscription engine.
var (
	// ErrSubEngineClosed reports use of a closed subscription engine.
	ErrSubEngineClosed = subscribe.ErrClosed
	// ErrUnknownSub reports an operation on a nonexistent subscription.
	ErrUnknownSub = subscribe.ErrUnknownSub
)

// NewSubscriptionEngine returns an empty continuous-query engine. Feed
// motion updates with Apply, move time forward with Advance, register
// standing queries with Subscribe or SubscribeStream, and collect typed
// enter/leave deltas with Drain (exact) or the stream channel
// (best-effort).
func NewSubscriptionEngine(cfg SubscribeConfig) (*SubscriptionEngine, error) {
	return subscribe.New(cfg)
}

// Two-dimensional movement (§4.2).
type (
	// Motion2D is one object's linear motion in the plane.
	Motion2D = twod.Motion2D
	// Query2D is the two-dimensional MOR query.
	Query2D = twod.MOR2Query
	// Terrain2D bounds the plane and the per-axis speed band.
	Terrain2D = twod.Terrain2D
	// Index2D is the common interface of the two-dimensional indexes.
	Index2D = twod.Index2D
	// KD4Config configures the 4-dimensional dual k-d index.
	KD4Config = twod.KD4Config
	// DecomposedConfig configures the per-axis decomposition index.
	DecomposedConfig = twod.DecomposedConfig
	// PartTree4Config configures the 4-dimensional partition-tree index.
	PartTree4Config = twod.PartTree4Config
)

// New2DKDIndex creates the 4-dimensional dual k-d index (§4.2).
func New2DKDIndex(store Store, cfg KD4Config) (*twod.Dual4, error) {
	return twod.NewKD4(store, cfg)
}

// New2DDecomposedIndex creates the per-axis decomposition index (§4.2).
func New2DDecomposedIndex(store Store, cfg DecomposedConfig) (*twod.Decomposed, error) {
	return twod.NewDecomposed(store, cfg)
}

// New2DPartitionTreeIndex creates the 4-dimensional partition-tree index —
// the §4.2 method with the almost-optimal O(n^(3/4+ε) + k) I/O bound.
func New2DPartitionTreeIndex(store Store, cfg PartTree4Config) (*twod.Dual4, error) {
	return twod.NewPartTree4(store, cfg)
}

// Route networks: the 1.5-dimensional problem (§4.1).
type (
	// RouteID identifies a route.
	RouteID = route.RouteID
	// Route is a polyline route addressed by arc length.
	Route = route.Route
	// RouteNetworkConfig configures a network.
	RouteNetworkConfig = route.Config
	// RouteNetwork holds routes and their per-route 1D indexes.
	RouteNetwork = route.Network
	// RouteHit is one routed query result.
	RouteHit = route.Hit
)

// NewRouteNetwork creates an empty route network.
func NewRouteNetwork(store Store, cfg RouteNetworkConfig) (*RouteNetwork, error) {
	return route.NewNetwork(store, cfg)
}

// Geometry helpers used by the 1.5-dimensional API.
type (
	// Point is a point in the plane.
	Point = geom.Point
	// Rect is an axis-parallel rectangle.
	Rect = geom.Rect
)

// Interface compliance.
var (
	_ Index1D = (*core.DualBPlus)(nil)
	_ Index2D = (*twod.Dual4)(nil)
)
