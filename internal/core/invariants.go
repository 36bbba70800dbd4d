package core

import (
	"fmt"

	"lcm/internal/memsys"
	"lcm/internal/tempest"
)

// CheckInvariants audits LCM's directory state against every node's access
// tags and returns the first violation found, or nil.  It may only run
// while the machine is quiescent.
//
// Invariants of the LCM protocol, per loosely coherent block:
//
//   - Every node in the sharer mask holds a readable (not private) copy.
//   - A node holding a read-only copy of a current-generation block is in
//     the sharer mask (stale-policy and older-generation copies of
//     unmodified blocks may legitimately outlive their mask entry only if
//     the mask still records them — the protocol never clears a sharer
//     without invalidating the copy).
//   - Between phases (after ReconcileCopies) no private copies exist and
//     no pending merge images are live.
//
// Coherent-region blocks are delegated to the embedded Stache checker.
func (p *LCM) CheckInvariants() error { return p.checkTags(false) }

// checkTags is the shared body of CheckInvariants and CheckQuiescent.
// With forbidPrivate set, any private copy is a violation (the between-
// phases rule); otherwise private copies must carry the current phase
// generation.
//
// The audit runs in two passes.  The block-major pass checks the sparse
// positive obligations (every recorded sharer really holds a read-only
// copy).  The node-major pass checks every held copy against the
// directory, scanning each node's line table sequentially — the table is
// dense in blocks, so this order walks memory linearly instead of
// striding across all nodes' tables once per block.
func (p *LCM) checkTags(forbidPrivate bool) error {
	if err := p.coherent.CheckInvariants(); err != nil {
		return err
	}
	ph := p.phase
	for bi := range p.entries {
		b := memsys.BlockID(bi)
		e := &p.entries[bi]
		if e.sharers.Empty() || p.m.AS.RegionOfBlock(b).Kind == memsys.KindCoherent {
			continue
		}
		for it := e.sharers.Iter(); ; {
			id, ok := it.Next()
			if !ok {
				break
			}
			l := p.m.Nodes[id].Line(b)
			if l == nil || l.Tag() != tempest.TagReadOnly {
				tag := "none"
				if l != nil {
					tag = tempest.TagName(l.Tag())
				}
				return fmt.Errorf("core: block %d sharer %d holds %s, want ro", b, id, tag)
			}
		}
	}
	for id, nd := range p.m.Nodes {
		for _, chunk := range nd.InstalledLines() {
			for li := range chunk {
				l := &chunk[li]
				if l.Data == nil {
					break // unallocated arena tail
				}
				b := l.Block()
				tag := l.Tag()
				if tag == tempest.TagInvalid || p.m.AS.RegionOfBlock(b).Kind == memsys.KindCoherent {
					continue
				}
				switch tag {
				case tempest.TagReadWrite:
					return fmt.Errorf("core: loose block %d carries coherent rw tag at node %d", b, id)
				case tempest.TagReadOnly:
					if !p.entries[b].sharers.Contains(id) {
						return fmt.Errorf("core: block %d read-only at node %d but not in sharer mask", b, id)
					}
				case tempest.TagPrivate:
					if forbidPrivate {
						return fmt.Errorf("core: node %d still holds block %d privately between phases", id, b)
					}
					if l.Gen != ph {
						return fmt.Errorf("core: block %d private at node %d with stale generation %d (phase %d)",
							b, id, l.Gen, ph)
					}
				}
			}
		}
	}
	return nil
}

// CheckQuiescent additionally requires that no parallel phase is in
// flight: no private copies, no marked lists, no pending merge images.
// Call after ReconcileCopies has completed on all nodes.
func (p *LCM) CheckQuiescent() error {
	if err := p.checkTags(true); err != nil {
		return err
	}
	for id, nd := range p.m.Nodes {
		if st, ok := nd.PD.(*nodeState); ok && len(st.marked) != 0 {
			return fmt.Errorf("core: node %d has %d unflushed marked blocks", id, len(st.marked))
		}
	}
	for bi := range p.entries {
		e := &p.entries[bi]
		if e.hasPending && e.gen == p.phase {
			return fmt.Errorf("core: block %d has a live pending image between phases", bi)
		}
	}
	return nil
}
