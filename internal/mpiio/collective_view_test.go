package mpiio

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"semplar/internal/adio"
	"semplar/internal/mpi"
)

// TestCollectiveWithViews: each rank installs an interleaved strided view
// (rank r owns record i*np+r) and moves all its records in ONE collective
// call — the composition MPI_File_set_view + MPI_File_write_at_all that
// two-phase I/O exists for. Verifies the physical interleave and the
// view-mapped read-back.
func TestCollectiveWithViews(t *testing.T) {
	const np = 4
	const rec = 512
	const recsPerRank = 8
	mem := adio.NewMemFS()
	reg := &adio.Registry{}
	reg.Register(mem)
	err := mpi.Run(np, func(c *mpi.Comm) error {
		f, err := Open(c, reg, "mem:/viewcoll", adio.O_RDWR|adio.O_CREATE, nil)
		if err != nil {
			return err
		}
		defer f.Close()
		v := View{Disp: int64(c.Rank() * rec), BlockLen: rec, Stride: np * rec}
		if err := f.SetView(v); err != nil {
			return err
		}
		data := bytes.Repeat([]byte{byte('0' + c.Rank())}, recsPerRank*rec)
		n, err := f.WriteAtAll(c, data, 0)
		if err != nil || n != len(data) {
			return fmt.Errorf("rank %d: WriteAtAll = %d, %v", c.Rank(), n, err)
		}
		c.Barrier()

		// Physical layout: record i holds byte '0'+i%np end to end.
		if err := f.SetView(View{}); err != nil {
			return err
		}
		buf := make([]byte, np*recsPerRank*rec)
		if _, err := f.ReadAt(buf, 0); err != nil {
			return err
		}
		for i := 0; i < np*recsPerRank; i++ {
			want := byte('0' + i%np)
			if buf[i*rec] != want || buf[(i+1)*rec-1] != want {
				return fmt.Errorf("record %d corrupted", i)
			}
		}
		c.Barrier()

		// Collective read back through the view: each rank sees only its
		// own records, contiguously.
		if err := f.SetView(v); err != nil {
			return err
		}
		got := make([]byte, recsPerRank*rec)
		n, err = f.ReadAtAll(c, got, 0)
		if err != nil || n != len(got) {
			return fmt.Errorf("rank %d: ReadAtAll = %d, %v", c.Rank(), n, err)
		}
		if !bytes.Equal(got, data) {
			return fmt.Errorf("rank %d: view read-back differs", c.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCollectiveViewUnevenTails: ranks transfer different lengths through
// their views, including a rank whose strided read runs past EOF — the
// collective completes with per-rank prefix-and-EOF semantics matching the
// independent path.
func TestCollectiveViewUnevenTails(t *testing.T) {
	const np = 3
	const rec = 128
	mem := adio.NewMemFS()
	reg := &adio.Registry{}
	reg.Register(mem)
	// 5 full record groups on disk.
	f0, _ := mem.Open("/tails", adio.O_RDWR|adio.O_CREATE, nil)
	content := make([]byte, 5*np*rec)
	for i := range content {
		content[i] = byte(i % 251)
	}
	f0.WriteAt(content, 0)
	f0.Close()

	err := mpi.Run(np, func(c *mpi.Comm) error {
		f, err := Open(c, reg, "mem:/tails", adio.O_RDONLY, nil)
		if err != nil {
			return err
		}
		defer f.Close()
		v := View{Disp: int64(c.Rank() * rec), BlockLen: rec, Stride: np * rec}
		if err := f.SetView(v); err != nil {
			return err
		}
		// Rank 0 asks for more records than exist; others stop in bounds.
		want := (4 + c.Rank()) * rec // rank 0: 4 recs (in bounds), rank 2: 6 recs (past EOF)
		buf := make([]byte, want)
		n, err := f.ReadAtAll(c, buf, 0)

		// Reference: same transfer through the independent (list-I/O) path.
		nf, err2 := OpenLocal(reg, "mem:/tails", adio.O_RDONLY, nil)
		if err2 != nil {
			return err2
		}
		defer nf.Close()
		nf.SetView(v)
		ref := make([]byte, want)
		wn, werr := nf.ReadAt(ref, 0)
		if n != wn || err != werr {
			return fmt.Errorf("rank %d: collective = (%d, %v), independent = (%d, %v)", c.Rank(), n, err, wn, werr)
		}
		if !bytes.Equal(buf[:n], ref[:wn]) {
			return fmt.Errorf("rank %d: collective bytes differ from independent", c.Rank())
		}
		if c.Rank() == np-1 && err != io.EOF {
			return fmt.Errorf("rank %d expected EOF, got %v", c.Rank(), err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
