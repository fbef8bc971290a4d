// Command hmmm-experiments regenerates the paper's tables and figures
// (see DESIGN.md §4 for the index) and prints each as a textual report.
//
// Usage:
//
//	hmmm-experiments [flags]
//
//	-list           list the experiment IDs and exit
//	-exp    string  experiment to run: T1, F1..F5, X1..X5, or "all"
//	-seed   uint    corpus seed (default 42)
//	-scale  float   corpus scale relative to the paper's 54/11567/506
//	                (default 1.0; use 0.1 for a quick pass)
//	-out    string  write the report to a file as well as stdout
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"time"

	"github.com/videodb/hmmm/internal/dataset"
	"github.com/videodb/hmmm/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("hmmm-experiments: ")

	var (
		list  = flag.Bool("list", false, "list experiment IDs and exit")
		exp   = flag.String("exp", "all", "experiment ID (T1, F1..F5, X1..X5) or all")
		seed  = flag.Uint64("seed", 42, "corpus seed")
		scale = flag.Float64("scale", 1.0, "corpus scale relative to the paper")
		out   = flag.String("out", "", "also write the report to this file")
	)
	flag.Parse()

	if *list {
		fmt.Println("T1  Table 1: the 20 visual/audio features")
		fmt.Println("F1  Figure 1: full framework pipeline")
		fmt.Println("F2  Figure 2: retrieval process trace")
		fmt.Println("F3  Figure 3: lattice traversal cost vs C")
		fmt.Println("F4  Figure 4: MATN query model")
		fmt.Println("F5  Figure 5: paper-scale corpus + headline query")
		fmt.Println("X1  claim: lower computational costs (vs exhaustive)")
		fmt.Println("X2  claim: continuous improvement from feedback")
		fmt.Println("X3  ablation: P1,2 / A1 training / beam width")
		fmt.Println("X4  extension: semi-automatic annotation")
		fmt.Println("X5  extension: video clustering (Sec. 4.2.2)")
		return
	}

	cfg := dataset.Config{
		Seed:      *seed,
		Videos:    maxInt(2, int(54**scale)),
		Shots:     maxInt(20, int(11567**scale)),
		Annotated: maxInt(4, int(506**scale)),
		Fast:      true,
	}
	fmt.Printf("building suite: %d videos / %d shots / %d annotated (seed %d)\n",
		cfg.Videos, cfg.Shots, cfg.Annotated, *seed)
	start := time.Now()
	suite, err := experiments.NewSuite(cfg)
	if err != nil {
		log.Fatalf("building suite: %v", err)
	}
	fmt.Printf("suite ready in %.1fs\n\n", time.Since(start).Seconds())

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatalf("creating output file: %v", err)
		}
		defer f.Close()
		w = io.MultiWriter(os.Stdout, f)
	}

	if strings.EqualFold(*exp, "all") {
		for _, r := range suite.RunAll() {
			fmt.Fprintln(w, r.String())
		}
		return
	}
	r, err := suite.Run(*exp)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintln(w, r.String())
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
