package buffer

// Test-only views of the send buffer.

// BySeq returns the unacked segment starting at byte offset seq, or nil.
func (b *SendBuffer) BySeq(seq uint64) *Segment {
	for _, seg := range b.segs {
		if seg.Seq == seq && !seg.released {
			return seg
		}
	}
	return nil
}

// LossMarked returns all segments currently flagged lost, in stream order.
func (b *SendBuffer) LossMarked() []*Segment {
	var out []*Segment
	for _, seg := range b.marked {
		if markedEntryLive(seg) {
			out = append(out, seg)
		}
	}
	return out
}
