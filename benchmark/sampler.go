package main

import "time"

// sampleEvery is how often the sampler reads the collector's usage.
// Resident memory swings with every GC and compaction cycle, so it is read
// many times and reported as the median of all readings.
const sampleEvery = 100 * time.Millisecond

// sampler reads the collector's resource usage for the length of a timed
// phase.
type sampler struct {
	col      collector
	stop     chan struct{}
	done     chan struct{}
	readings []usage
}

func startSampler(col collector) *sampler {
	s := &sampler{col: col, stop: make(chan struct{}), done: make(chan struct{})}
	s.readings = append(s.readings, col.usage())
	go func() {
		defer close(s.done)
		t := time.NewTicker(sampleEvery)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.readings = append(s.readings, s.col.usage())
			}
		}
	}()
	return s
}

// finish stops the sampler and takes one last reading. It returns the CPU
// time the collector used over the phase, its median resident memory and
// its peak.
func (s *sampler) finish() (cpu time.Duration, rssMB, peakMB float64) {
	close(s.stop)
	<-s.done
	last := s.col.usage()
	s.readings = append(s.readings, last)
	rss := make([]float64, len(s.readings))
	for i, u := range s.readings {
		rss[i] = u.RSSMB
	}
	return last.CPU - s.readings[0].CPU, median(rss), last.PeakMB
}
