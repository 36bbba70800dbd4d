package stache

import (
	"fmt"

	"lcm/internal/memsys"
	"lcm/internal/tempest"
)

// CheckInvariants audits the directory against every node's access tags
// and returns the first violation found, or nil.  It may only run while
// the machine is quiescent (between Run calls or inside a barrier window).
//
// Invariants of the Stache protocol, per block:
//
//   - stateIdle: no node holds a readable copy.
//   - stateShared: exactly the nodes in the sharer mask hold copies, all
//     read-only.
//   - stateExcl: exactly the owner holds a copy, read-write; nobody else
//     holds any access.
//   - No line of a coherent region carries TagPrivate (that tag belongs to
//     LCM's copies of loosely coherent blocks).
//
// A coherent line's data is the block's home image by construction: the
// line is its tag byte and nothing else (tempest's home lines), which is what
// lets a coherent store write memory once and a handler serve any block from
// the home image.
//
// The audit runs in two passes.  The block-major pass checks the sparse
// positive obligations (recorded sharers and owners really hold their
// copies).  The node-major pass checks every held copy against the
// directory; it walks each node's valid lines (Node.ValidLines), which reads
// the node's tag array linearly instead of striding across all nodes' tags
// per block.
func (p *Protocol) CheckInvariants() error {
	for bi := range p.entries {
		b := memsys.BlockID(bi)
		e := &p.entries[bi]
		if e.state == stateIdle {
			continue
		}
		// When embedded inside LCM, this protocol only governs
		// coherent regions; loose blocks legitimately carry private
		// tags and are audited by the LCM checker.
		if p.m.AS.RegionOfBlock(b).Kind != memsys.KindCoherent {
			continue
		}
		if e.state == stateExcl {
			if tag := p.m.Nodes[int(e.owner)].Tag(b); tag != tempest.TagReadWrite {
				return fmt.Errorf("stache: block %d owner %d has tag %s", b, e.owner, tempest.TagName(tag))
			}
			continue
		}
		// Word-skipping member iteration: O(sharers), not O(P) per block.
		for it := e.sharers.Iter(); ; {
			id, ok := it.Next()
			if !ok {
				break
			}
			if tag := p.m.Nodes[id].Tag(b); tag != tempest.TagReadOnly {
				return fmt.Errorf("stache: block %d sharer %d has tag %s", b, id, tempest.TagName(tag))
			}
		}
	}
	for id, nd := range p.m.Nodes {
		for it := nd.ValidLines(); ; {
			b, tag, ok := it.Next()
			if !ok {
				break
			}
			if p.m.AS.RegionOfBlock(b).Kind != memsys.KindCoherent {
				continue
			}
			if tag == tempest.TagPrivate {
				return fmt.Errorf("stache: node %d holds private tag on block %d", id, b)
			}
			switch e := &p.entries[b]; e.state {
			case stateIdle:
				return fmt.Errorf("stache: idle block %d readable at node %d (%s)", b, id, tempest.TagName(tag))
			case stateShared:
				if !e.sharers.Contains(id) {
					return fmt.Errorf("stache: block %d non-sharer %d has tag %s", b, id, tempest.TagName(tag))
				}
			case stateExcl:
				if id != int(e.owner) {
					return fmt.Errorf("stache: block %d non-owner %d has tag %s", b, id, tempest.TagName(tag))
				}
			}
		}
	}
	return nil
}
