package metrics

// Merge folds every sample of o into c. Merging is how multi-run
// experiments build one distribution out of per-run CDFs; o is unchanged.
// Merging a sketch into an exact CDF upgrades the receiver to a sketch
// (exact samples can be bucketed; buckets cannot be un-bucketed).
func (c *CDF) Merge(o *CDF) {
	if o == nil || o.Len() == 0 {
		return
	}
	if o.sketch && !c.sketch {
		c.UseSketch()
	}
	if c.sketch {
		if o.sketch {
			if len(o.buckets) > len(c.buckets) {
				grown := make([]int64, len(o.buckets))
				copy(grown, c.buckets)
				c.buckets = grown
			}
			for i, n := range o.buckets {
				c.buckets[i] += n
			}
			c.count += o.count
			return
		}
		for _, d := range o.samples {
			c.addSketch(d)
		}
		return
	}
	c.samples = append(c.samples, o.samples...)
	c.sorted = false
}

// Merge folds every key of o into p, merging CDFs key by key.
func (p *PerKeyCDF) Merge(o *PerKeyCDF) {
	if o == nil {
		return
	}
	for _, k := range o.Keys() {
		c, ok := p.cdfs[k]
		if !ok {
			c = &CDF{}
			p.cdfs[k] = c
		}
		c.Merge(o.cdfs[k])
	}
}
