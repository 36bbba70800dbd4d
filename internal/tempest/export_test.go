package tempest

// Posts returns how many of the node's handlers have posted effects that are
// not yet applied.
func (n *Node) Posts() int { return int(n.fxLen) }
