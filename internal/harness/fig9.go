package harness

import (
	"fmt"
	"time"

	"semplar/internal/adio"
	"semplar/internal/cluster"
	"semplar/internal/core"
	"semplar/internal/mpi"
	"semplar/internal/mpiio"
	"semplar/internal/stats"
	"semplar/internal/workloads/datagen"
)

// RunFig9 reproduces Figure 9: the on-the-fly compression experiment.
// Every process holds a nucleotide EST text (the paper's 100 MB file,
// scaled) and writes it to its own remote file. The synchronous baseline
// writes the raw data with blocking calls; the asynchronous variant
// compresses 1 MB blocks with LZO and pipelines compression of block k+1
// with the transfer of block k. Bandwidth is application bytes over wall
// time, so compression shows up as effective-bandwidth gain.
func RunFig9(opt Options) (*Figure, error) {
	opt = opt.withDefaults([]int{2, 4, 8, 13})
	// Paper: 100 MB per process in 1 MB pipeline blocks. Blocks must
	// stay large relative to the RTT so the per-request round trip does
	// not dominate, as in the paper's regime.
	perProc := 2 << 20
	block := 1 << 20
	if opt.Quick {
		perProc = 1 << 20
		block = 512 << 10
	}
	// The paper's regime has compression roughly two orders of magnitude
	// faster than the WAN. LZO runs at ~200 MB/s, so this experiment
	// uses a lower acceleration than the others to keep the scaled WAN
	// well below compression speed.
	opt.Scale *= 0.4
	src := datagen.ESTText(perProc, 11)

	fig := &Figure{
		ID:    "fig9",
		Title: "on-the-fly compression: aggregate write bandwidth, sync (raw) vs async (LZO-pipelined)",
		Paper: "avg aggregate write bandwidth +83% (DAS-2), +84% (TG-NCSA); Tcomp ~ two orders below Txmit",
	}

	for _, spec := range []cluster.Spec{cluster.DAS2(), cluster.TGNCSA()} {
		scaled := spec.Scaled(opt.Scale)
		syncS := &stats.Series{Label: "sync-write"}
		asyncS := &stats.Series{Label: "async-compressed-write"}

		for _, np := range opt.Procs {
			for _, async := range []bool{false, true} {
				d, err := runCompressionOnce(scaled, np, src, block, async, opt.Trials)
				if err != nil {
					return nil, fmt.Errorf("fig9 %s np=%d async=%v: %w", spec.Name, np, async, err)
				}
				bw := stats.MbPerSec(int64(np)*int64(len(src)), d)
				if async {
					asyncS.Add(np, bw)
				} else {
					syncS.Add(np, bw)
				}
			}
		}

		fig.Clusters = append(fig.Clusters, ClusterResult{
			Cluster: spec.Name,
			XLabel:  "np", YLabel: "aggregate write Mb/s",
			Series: []*stats.Series{syncS, asyncS},
			Metrics: map[string]float64{
				"compression gain %": pct(stats.MeanRatio(asyncS, syncS) - 1),
			},
		})
	}
	return fig, nil
}

// runCompressionOnce measures the barrier-to-barrier write time of one
// round: every rank writes its EST text to an independent remote file.
func runCompressionOnce(spec cluster.Spec, np int, src []byte, block int, async bool, trials int) (time.Duration, error) {
	return minTimed(trials, func() (time.Duration, error) {
		tb := cluster.New(spec, np)
		var elapsed time.Duration
		err := mpi.RunOn(np, tb.Fabric(), func(c *mpi.Comm) error {
			reg := tb.Registry(c.Rank(), core.SRBFSConfig{})
			path := fmt.Sprintf("srb:/est-%d.out", c.Rank())
			f, err := mpiio.OpenLocal(reg, path, adio.O_WRONLY|adio.O_CREATE, nil)
			if err != nil {
				return err
			}
			defer f.Close()

			c.Barrier()
			start := time.Now()
			if async {
				// On-the-fly LZO compression pipelined with the
				// transfer through the async engine.
				if _, err := core.WriteCompressed(f, 0, src, block, f.Engine()); err != nil {
					return err
				}
			} else {
				// Baseline: blocking write of the raw data.
				if _, err := f.WriteAt(src, 0); err != nil {
					return err
				}
			}
			c.Barrier()
			d := time.Duration(c.AllreduceFloat64(float64(time.Since(start)), mpi.OpMax))
			if c.Rank() == 0 {
				elapsed = d
			}
			return nil
		})
		return elapsed, err
	})
}
