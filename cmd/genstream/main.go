// Command genstream generates synthetic stream-processing datasets (the
// paper's §V construction) and writes them as JSON.
//
// Graphs are generated one at a time and streamed straight into the JSON
// encoder, so peak memory is a single graph — the extreme preset (~1M
// nodes) exports in O(E) memory instead of materializing the whole split.
// The output is a JSON array of graphs in allocserve's wire format:
// serve.GraphSpec decodes each element, bit for bit.
//
// Usage:
//
//	genstream -setting large-10k-10dev -out large.json [-scale 1.0] [-split train|test]
//	genstream -list
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"repro/internal/gen"
	"repro/internal/stream"
)

func main() {
	var (
		settingName = flag.String("setting", "medium-10k-10dev", "dataset preset name (see -list)")
		out         = flag.String("out", "", "output JSON path (default: stdout)")
		scale       = flag.Float64("scale", 1.0, "dataset size multiplier")
		split       = flag.String("split", "test", "which split to emit: train or test")
		list        = flag.Bool("list", false, "list available presets and exit")
	)
	flag.Parse()

	if *list {
		fmt.Println("available settings:")
		for _, s := range gen.AllSettings() {
			fmt.Printf("  %-22s %7d-%7d nodes, %2d devices, %5.0f Mbps, %d train / %d test\n",
				s.Name, s.Config.MinNodes, s.Config.MaxNodes,
				s.Cluster.Devices, s.Cluster.Bandwidth/1e6, s.TrainN, s.TestN)
		}
		return
	}

	setting, err := gen.ByName(*settingName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	s := setting.Scale(*scale)
	n, seed, err := s.Split(*split)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	f := os.Stdout
	if *out != "" {
		f, err = os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	jw := stream.NewJSONWriter(bw)
	err = gen.GenerateEach(s.Config, n, seed, func(i int, g *stream.Graph) error {
		if err := jw.Write(g); err != nil {
			return err
		}
		if g.NumNodes() >= 50_000 {
			// Big graphs take a while each; show per-graph progress.
			fmt.Fprintf(os.Stderr, "graph %d/%d: %d nodes, %d edges\n", i+1, n, g.NumNodes(), g.NumEdges())
		}
		return nil
	})
	if err == nil {
		err = jw.Close()
	}
	if err == nil {
		err = bw.Flush()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "wrote %d %s graphs of %s\n", n, *split, s.Name)
}
