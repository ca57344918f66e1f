package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/model"
)

// Adversary generates the retention-leak attack family the retention
// governor exists to defeat. The paper's motivating failure needs exactly
// two ingredients: an active transaction A that read an entity x, and a
// completed transaction V that later wrote x with nobody writing x again.
// Then A is an active tight predecessor of V and V can never acquire the
// completed tight successor witness Theorem 1's C1 demands — V is retained
// for as long as A lives. The adversary manufactures that shape on
// purpose, at scale, in three escalating forms:
//
//   - Sleeper transactions: long-lived sessions that never commit. Each
//     victim cycle allocates a FRESH trap entity (never reused — a reused
//     trap's next writer would become the previous victim's witness and
//     the leak would self-heal), has a sleeper read it, then has a
//     short-lived victim write it and complete. One sleeper pins one
//     victim per cycle, forever.
//   - Label-chain bombs: cross-partition sleepers whose declared footprint
//     spans every partition. Their sub-nodes source cross-ancestor labels,
//     so every victim they trap is double-gated: C1 fails (no witness) AND
//     the label keeps policyDeletable false until the registry entry dies —
//     PR 3's known conservatism, weaponized.
//   - Pathological cross fan-out: a FanOutFrac fraction of victims write
//     one fresh trap on EVERY partition and commit through 2PC, so a
//     single cross sleeper pins retained storage on all shards at once.
//
// Reaping a sleeper removes its node, arcs, and registry entry; the next
// sweep then deletes every victim it pinned — which is precisely the
// governor contract the soak test asserts.
type AdversaryConfig struct {
	// Shards is the engine partition count (entity x lives on x mod
	// Shards); default 1.
	Shards int
	// Victims is how many trapped victim transactions to issue.
	Victims int
	// Sleepers is the number of partition-local sleeper sessions (slot j
	// homes at partition j mod Shards); default 1.
	Sleepers int
	// CrossSleepers is the number of label-bomb sleepers whose footprint
	// spans every partition (0 unless Shards > 1).
	CrossSleepers int
	// FanOutFrac in [0,1] is the fraction of victims that write one fresh
	// trap per partition and commit through 2PC (needs a cross sleeper to
	// trap them; 0 unless Shards > 1).
	FanOutFrac float64
	// Respawn restarts a reaped sleeper under a fresh ID, so the attack
	// pressure survives the governor — the steady state the soak test
	// wants: bounded retention under *sustained* attack, not one reap.
	Respawn bool
	// BaseTxnID offsets allocated IDs (disjoint ID spaces per generator).
	BaseTxnID model.TxnID
	// Seed makes the stream deterministic.
	Seed int64
}

func (c *AdversaryConfig) withDefaults() AdversaryConfig {
	out := *c
	if out.Shards <= 0 {
		out.Shards = 1
	}
	if out.Victims <= 0 {
		out.Victims = 100
	}
	if out.Sleepers <= 0 && out.CrossSleepers <= 0 {
		out.Sleepers = 1
	}
	if out.Shards < 2 {
		// Cross shapes need at least two partitions.
		out.CrossSleepers = 0
		out.FanOutFrac = 0
	}
	if out.FanOutFrac < 0 {
		out.FanOutFrac = 0
	}
	if out.FanOutFrac > 1 {
		out.FanOutFrac = 1
	}
	return out
}

// sleeperSlot is one sleeper session: alive until the scheduler (or the
// governor) aborts it, then optionally respawned under a fresh ID.
type sleeperSlot struct {
	id    model.TxnID // NoTxn while dead and awaiting respawn (or retired)
	cross bool
	home  int // local sleepers only
	begun bool
}

// Adversary implements Generator for the attack family.
type Adversary struct {
	cfg   AdversaryConfig
	rng   *rand.Rand
	queue []model.Step
	slots []sleeperSlot
	// trapNext[p] is partition p's next fresh trap entity (p + Shards*k,
	// monotone — fresh traps are the load-bearing trick; see the type doc).
	trapNext []model.Entity
	nextID   model.TxnID
	issued   int
	aborted  int
	// dead marks aborted transactions whose already-queued steps must be
	// dropped instead of emitted.
	dead map[model.TxnID]bool
}

var _ Generator = (*Adversary)(nil)

// NewAdversary returns the attack generator for cfg.
func NewAdversary(cfg AdversaryConfig) *Adversary {
	c := cfg.withDefaults()
	a := &Adversary{
		cfg:      c,
		rng:      rand.New(rand.NewSource(c.Seed)),
		trapNext: make([]model.Entity, c.Shards),
		nextID:   c.BaseTxnID,
		dead:     make(map[model.TxnID]bool),
	}
	for p := range a.trapNext {
		a.trapNext[p] = model.Entity(p)
	}
	for j := 0; j < c.Sleepers; j++ {
		a.slots = append(a.slots, sleeperSlot{id: model.NoTxn, home: j % c.Shards})
	}
	for j := 0; j < c.CrossSleepers; j++ {
		a.slots = append(a.slots, sleeperSlot{id: model.NoTxn, cross: true})
	}
	return a
}

// Aborts returns how many aborts the generator has been notified of.
func (a *Adversary) Aborts() int { return a.aborted }

// Issued returns how many victim transactions have been issued.
func (a *Adversary) Issued() int { return a.issued }

// freshTrap allocates partition p's next never-before-seen entity.
func (a *Adversary) freshTrap(p int) model.Entity {
	x := a.trapNext[p]
	a.trapNext[p] += model.Entity(a.cfg.Shards)
	return x
}

func (a *Adversary) allocID() model.TxnID {
	id := a.nextID
	a.nextID++
	return id
}

// beginSleeper enqueues slot i's BEGIN. A local sleeper declares one fresh
// entity of its home partition (partition discipline is partition-level,
// so its later reads of other traps there are legal); a cross sleeper
// declares one fresh entity per partition, making it a label-sourcing
// cross transaction on every shard.
func (a *Adversary) beginSleeper(i int) {
	s := &a.slots[i]
	s.id = a.allocID()
	s.begun = true
	if s.cross {
		fp := make([]model.Entity, a.cfg.Shards)
		for p := range fp {
			fp[p] = a.freshTrap(p)
		}
		a.queue = append(a.queue, model.BeginDeclared(s.id, fp...))
		return
	}
	a.queue = append(a.queue, model.BeginDeclared(s.id, a.freshTrap(s.home)))
}

// liveSlot picks a random live sleeper slot, preferring cross sleepers
// when cross is required; -1 if none qualifies.
func (a *Adversary) liveSlot(needCross bool) int {
	cands := make([]int, 0, len(a.slots))
	for i, s := range a.slots {
		if s.id == model.NoTxn || !s.begun {
			continue
		}
		if needCross && !s.cross {
			continue
		}
		cands = append(cands, i)
	}
	if len(cands) == 0 {
		return -1
	}
	return cands[a.rng.Intn(len(cands))]
}

// refill plans one victim cycle: (re)begin dead sleeper slots, have a
// sleeper read the fresh trap(s), then issue the victim that writes them.
func (a *Adversary) refill() {
	for i := range a.slots {
		if a.slots[i].id == model.NoTxn && (a.cfg.Respawn || !a.slots[i].begun) {
			a.beginSleeper(i)
		}
	}
	if a.issued >= a.cfg.Victims {
		return
	}
	a.issued++
	victim := a.allocID()
	if a.cfg.FanOutFrac > 0 && a.rng.Float64() < a.cfg.FanOutFrac {
		if i := a.liveSlot(true); i >= 0 {
			// Fan-out victim: one fresh trap per partition, all read by a
			// cross sleeper, committed through 2PC.
			traps := make([]model.Entity, a.cfg.Shards)
			for p := range traps {
				traps[p] = a.freshTrap(p)
				a.queue = append(a.queue, model.Read(a.slots[i].id, traps[p]))
			}
			a.queue = append(a.queue,
				model.BeginDeclared(victim, traps...),
				model.WriteFinal(victim, traps...))
			return
		}
	}
	// Local victim: home it where a live sleeper can trap it.
	i := a.liveSlot(false)
	home := a.rng.Intn(a.cfg.Shards)
	if i >= 0 && !a.slots[i].cross {
		home = a.slots[i].home
	}
	trap := a.freshTrap(home)
	if i >= 0 {
		a.queue = append(a.queue, model.Read(a.slots[i].id, trap))
	}
	a.queue = append(a.queue,
		model.BeginDeclared(victim, trap),
		model.WriteFinal(victim, trap))
}

// Next implements Generator.
func (a *Adversary) Next() (model.Step, bool) {
	for {
		for len(a.queue) > 0 {
			st := a.queue[0]
			a.queue = a.queue[1:]
			if a.dead[st.Txn] {
				continue
			}
			return st, true
		}
		before := len(a.queue)
		a.refill()
		if len(a.queue) == before {
			// No step producible: victims exhausted and every slot retired.
			return model.Step{}, false
		}
	}
}

// NotifyAbort implements Generator.
func (a *Adversary) NotifyAbort(id model.TxnID) {
	a.aborted++
	a.dead[id] = true
	for i := range a.slots {
		if a.slots[i].id == id {
			a.slots[i].id = model.NoTxn
			if !a.cfg.Respawn {
				// Retired for good: begun stays true so refill skips it.
				return
			}
			// Respawned lazily by the next refill.
			return
		}
	}
}

// String describes the adversary configuration.
func (a *Adversary) String() string {
	return fmt.Sprintf("adversary{shards=%d victims=%d sleepers=%d cross=%d fanout=%.2f respawn=%v seed=%d}",
		a.cfg.Shards, a.cfg.Victims, a.cfg.Sleepers, a.cfg.CrossSleepers, a.cfg.FanOutFrac, a.cfg.Respawn, a.cfg.Seed)
}
