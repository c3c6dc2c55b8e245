package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"critics"
	"critics/internal/artifact"
	"critics/internal/scan"
	"critics/internal/server"
)

// cmdScan runs a source-free scan: score missed CritIC opportunities in a
// binary image against a dynamic trace, without the source program. Inputs
// are either real files (-image/-trace, the production path) or assembled
// from a catalog app (-app/-instrs, the self-contained demo and test path).
// The default dispatches through the daemon — artifacts are chunk-uploaded
// by digest and the scan may fan out across a dist fleet; -local computes
// in-process, producing the identical report.
func (x *cli) scan(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("scan", flag.ContinueOnError)
	var (
		app        = fs.String("app", "", "assemble this catalog app's binary image + trace as the scan inputs")
		instrs     = fs.Int("instrs", 30000, "trace length to generate with -app, dynamic instructions")
		imageFile  = fs.String("image", "", "binary image file to scan (with -trace; overrides -app)")
		traceFile  = fs.String("trace", "", "trace file (scan.WriteTrace format) for -image")
		local      = fs.Bool("local", false, "compute in-process instead of dispatching to the daemon")
		chunkBytes = fs.Int("chunk-bytes", 0, "upload chunk size in bytes (0 = server max); small values exercise resumable chunking")
		timeout    = fs.Duration("timeout", 5*time.Minute, "give up waiting for the job after this long")
	)
	if err := x.parse(fs, args); err != nil {
		return err
	}

	img, trc, err := scanInputs(*app, *imageFile, *traceFile, *instrs)
	if err != nil {
		return err
	}

	if *local {
		rep, err := scan.Run(img, bytes.NewReader(trc), artifact.Sum(img), artifact.Sum(trc))
		if err != nil {
			return err
		}
		fmt.Fprint(x.stdout, rep.Text())
		return nil
	}

	imgDigest, err := x.c.UploadArtifact(ctx, img, *chunkBytes)
	if err != nil {
		return fmt.Errorf("uploading image: %w", err)
	}
	trcDigest, err := x.c.UploadArtifact(ctx, trc, *chunkBytes)
	if err != nil {
		return fmt.Errorf("uploading trace: %w", err)
	}
	fmt.Fprintf(x.stderr, "uploaded image %s (%d bytes), trace %s (%d bytes)\n",
		imgDigest, len(img), trcDigest, len(trc))

	st, err := x.c.Submit(ctx, server.SubmitRequest{
		Kind:        server.KindScan,
		ImageDigest: imgDigest,
		TraceDigest: trcDigest,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(x.stderr, "scan job %s submitted\n", st.ID)
	return x.printResult(ctx, "scan job", st.ID, *timeout)
}

// scanInputs resolves the image and trace bytes from the flag combination.
func scanInputs(app, imageFile, traceFile string, instrs int) (img, trc []byte, err error) {
	switch {
	case imageFile != "" || traceFile != "":
		if imageFile == "" || traceFile == "" {
			return nil, nil, fmt.Errorf("-image and -trace must be given together")
		}
		if img, err = os.ReadFile(imageFile); err != nil {
			return nil, nil, err
		}
		if trc, err = os.ReadFile(traceFile); err != nil {
			return nil, nil, err
		}
		return img, trc, nil
	case app != "":
		var addrs []uint32
		if img, addrs, err = critics.ScanInputs(app, instrs); err != nil {
			return nil, nil, err
		}
		return img, scan.TraceBytes(addrs, scan.DefaultChunk), nil
	default:
		return nil, nil, fmt.Errorf("scan needs -app NAME or -image FILE -trace FILE")
	}
}

// artifacts is the store-management surface: list, stat <digest>, gc.
func (x *cli) artifacts(ctx context.Context, args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: criticctl artifacts <list|stat <digest>|gc>")
	}
	switch sub, rest := args[0], args[1:]; sub {
	case "list":
		infos, err := x.c.ArtifactList(ctx)
		if err != nil {
			return err
		}
		writeArtifactList(x.stdout, infos)
	case "stat":
		if len(rest) < 1 {
			return fmt.Errorf("usage: criticctl artifacts stat <digest>")
		}
		info, err := x.c.ArtifactStat(ctx, rest[0])
		if err != nil {
			return err
		}
		fmt.Fprintf(x.stdout, "%s  %d bytes\n", info.Digest, info.Size)
	case "gc":
		res, err := x.c.ArtifactGC(ctx)
		if err != nil {
			return err
		}
		fmt.Fprintf(x.stdout, "gc removed %d artifacts, freed %d bytes\n", res.Removed, res.Freed)
	default:
		return fmt.Errorf("unknown artifacts subcommand %q (list, stat, gc)", sub)
	}
	return nil
}

// writeArtifactList renders the store listing; split from artifacts so
// tests can capture it.
func writeArtifactList(w io.Writer, infos []artifact.Info) {
	if len(infos) == 0 {
		fmt.Fprintln(w, "artifact store is empty")
		return
	}
	var total int64
	for _, info := range infos {
		fmt.Fprintf(w, "%s  %10d bytes\n", info.Digest, info.Size)
		total += info.Size
	}
	fmt.Fprintf(w, "%d artifacts, %d bytes\n", len(infos), total)
}
