// Package engine is the concurrent, sharded transaction-processing engine:
// the paper's conflict-graph scheduler with online deletion (packages core
// and graph) lifted from single-threaded library code to a thread-safe
// service that absorbs sustained traffic from many client goroutines.
//
// # Architecture
//
// The entity space is hash-partitioned: entity x belongs to partition
// x mod N. Each of the N shards runs its own core.Scheduler with its own
// conflict graph and deletion policy, behind one mutex: the scheduler is a
// sequential machine fed one step at a time, so a shard is a lock, not a
// queue or a goroutine. Clients call SubmitCtx (SubmitPriority adds a
// priority for the retention governor), which routes the step to its
// shard, takes the shard's lock, applies the step (the scheduler sweeps
// after every step that terminates a transaction, examining only what the
// termination released), runs the housekeeping and unlocks;
// SubmitBatchInto does the same for a batch, one visit per shard its steps
// touch, and answers steps[i] with the i-th Result, which does not repeat
// the step. A submitter that
// finds the lock held yields a few times, then blocks; the submitters
// waiting for a shard are counted in Stats.QueueDepth. The engine starts
// no goroutine of its own.
//
// A transaction declares its entity footprint on BEGIN
// (model.BeginDeclared). A footprint inside one partition routes the
// transaction to that shard for its whole life; the engine enforces the
// partition discipline by rejecting (and aborting) any later step that
// touches a foreign partition. A footprint spanning partitions marks the
// transaction cross-partition: it runs as one sub-transaction per
// participating shard, all sharing the logical TxnID, and commits through
// the two-phase protocol below.
//
// # Why per-shard acyclicity is global CSR — the 2PC argument
//
// Two transactions conflict only if they access a common entity. Local
// transactions of different shards touch disjoint entity sets, so the
// global conflict graph restricted to local transactions is the disjoint
// union of the per-shard graphs, and per-shard acceptance (each shard
// accepts only acyclic extensions, the paper's Rules 1–3) is exactly
// global conflict serializability for them.
//
// Cross-partition transactions break the disjointness: fold each logical
// transaction's sub-nodes into one node and a global cycle can thread
// through several shard graphs while every individual graph stays acyclic.
// Three observations restore the argument without ever freezing the world:
//
//  1. Any global cycle not contained in one shard graph must change shards
//     at nodes present in more than one graph — cross transactions — and a
//     simple cycle must pass through at least two distinct ones. So it
//     decomposes into shard-local paths between sub-nodes of cross
//     transactions.
//
//  2. Shard-local reachability from cross sub-nodes is tracked exactly, as
//     it forms: every node carries the set of cross transactions whose
//     sub-node reaches it within that shard (its cross-ancestor labels,
//     core/subtxn.go), sourced at sub-nodes and flooded forward the moment
//     an arc is added. When label X first lands on the sub-node of a
//     different cross transaction Y, a shard-local path X→…→Y exists: an
//     inter-shard reach-arc X→Y, reported to the engine's cross-arc
//     registry (cross2pc.go). A label names the sub-node incarnation that
//     sourced it (arena slot and BeginSeq), so a client reusing a TxnID
//     never meets its predecessor's leftover labels as its own.
//
//  3. The registry keeps the reach-arcs among live cross transactions and
//     refuses the one that would close a registry cycle — the acting step
//     is rejected and only its own transaction aborts. It tracks the
//     record the route names (crossTxn), whose clean marks and arcs it
//     guards. By (1)+(2) every global cycle would have to complete a
//     registry cycle first, so no accepted schedule contains one. The
//     refusal lands wherever the last connecting arc appears: at PREPARE
//     (the classic two-transaction case — the cross transaction's final
//     write is rejected on that shard, which is its NO vote, and the
//     transaction aborts), or at a local step whose new arcs complete the
//     last shard-local path (that local transaction aborts, exactly the
//     paper's cycle-rejection semantics).
//
// The commit itself is a two-phase protocol driven from the submitting
// goroutine: PREPARE each participant, then COMMIT or ABORT everywhere.
// To a participant the PREPARE is the sub-transaction's final write, its
// slice of the write set, applied like any step: Rule 3's cycle test and
// the registry's veto decide it. A rejection is the NO vote and removes
// that shard's sub-node at once; an accepted write places the arcs and is
// the YES vote, holding the sub-node prepared for the decision. The BEGIN
// fans out the same way, as one ordinary BEGIN per participant, which the
// shard tells from a local one by its footprint spanning shards. The
// decision is a step too, a model.KindCommit or model.KindAbort per
// participant, which no door admits: every shard visit is one window of
// steps (it may also ask for the scheduler's counters or oldest actives),
// and recovery resolves what a crash left undecided through the same two
// decision paths. Participants never pause — the prepared state freezes the
// sub-transaction, not the shard — and no goroutine holds two shard locks,
// so concurrent two-phase commits cannot deadlock and non-participants are
// untouched: a bystander active across a cross commit goes on to commit
// (TestCrossPartition2PC).
//
// # Deletion under sharding — C1/C2 lifted to logical transactions
//
// Each shard garbage-collects its own graph with its own policy instance;
// C1/C2 are properties of a scheduler's reduced graph and apply per shard
// unchanged — but per-shard C1 cannot see inter-shard paths, so deletion
// is additionally gated (core.Sweep refuses) for:
//
//   - sub-nodes of registry-tracked logical transactions;
//   - any node carrying a live cross-ancestor label, since reducing it
//     would stop the label from reaching future successors and hide a
//     reach-arc from the registry.
//
// A prepared-but-undecided sub-node is still active, so no policy can
// delete it. The registry retires a cross transaction T — lifting both
// gates above and letting plain per-shard C1/C2 resume — once (a) every
// participant reports T's sub-node free of active ancestors, and (b) no
// live cross transaction still reaches T (registry in-degree zero). Only a committed
// sub-node is ever reported: its scheduler files it at the commit on the
// first active ancestor it finds, searches again when that ancestor
// terminates, and hands the ID over once none is left
// (core.Scheduler.TakeClean), which the shard reports at the end of its
// visit. So (a) also says every participant committed: T is decided. (a)
// freezes T's ancestor sets: arcs only ever point into acting nodes, so a
// completed sub-node all of whose ancestors are completed can never gain
// new ones, and no new label can arrive at it (its carrier would already
// be an active ancestor). (b) covers cycles that would use T's *existing*
// through-paths while only the return path is new: the reach-arcs into and
// out of T must stay until nothing live can re-enter it. Retirement
// cascades along out-arcs, so chains of committed transactions drain as
// their predecessors expire.
// Shards are told of a retirement, not asked: the registry files a retired
// or aborted transaction on a list for each participant, and each visit of
// a shard takes its list before any step (crossRegistry.take) and hands
// the IDs to core.Scheduler.Retire, which releases what the sub-nodes'
// labels gated and sweeps it at once, so a retirement frees what it gated
// in the visit that lands it.
//
// Both doors decide alike (TestSubmitBatchEquivalentToPerStep) except for
// one freedom of the batch door: it applies a window shard by shard, so two
// cross transactions' reads bound for different shards reach the registry
// in window order, and the registry may veto the other one of the two than
// per-step submission of the same steps would, as it may for two concurrent
// clients (TestBatchCrossVetoOrder). Ordering those reads across shards
// would end a window at every cross read; no client can tell a batch from
// two racing sessions, so the door keeps the freedom. Theorem 2 holds on
// either side of it.
//
// The offline referee (trace.CheckAcceptedCSR) closes the loop end to end:
// sub-transactions log under the logical TxnID, so the referee rebuilds
// the conflict graph over logical transactions from scratch and verifies
// acyclicity in the randomized oracles, including the cross-heavy -race
// oracle (TestOracleCrossHeavyCSR).
package engine
