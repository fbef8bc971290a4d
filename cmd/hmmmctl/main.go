// Command hmmmctl is the CLI client for an hmmmd retrieval server: the
// scriptable stand-in for the paper's Figure-5 query interface.
//
// Usage:
//
//	hmmmctl [flags] <command> [args]
//
//	-server  string  hmmmd base URL (default http://localhost:8077)
//
// Commands:
//
//	stats                      model, feedback-log, and runtime statistics
//	                           (QPS, latency percentiles, cache hit rate,
//	                           inflight, model generation, pending feedback)
//	metrics                    dump the raw Prometheus /metrics text
//	events                     list the event taxonomy
//	videos                     list archive videos and their events
//	query  <pattern> [flags]   run an MATN temporal pattern query, e.g.
//	                           hmmmctl query "goal -> free_kick" -k 5
//	parse <pattern>            validate an MATN pattern and show its network
//	state <index>              inspect one model state (annotated shot)
//	rank <pattern>             rank videos for a pattern
//	similar <video-id>         list videos similar to the given one
//	feedback <state> [...]     mark a retrieved pattern positive by its
//	                           state indices (from query output)
//	retrain                    force offline retraining now
//	ingest [flags]             submit one synthetic video for live ingest
//	                           (the server must run with live ingest on), e.g.
//	                           hmmmctl ingest -name cam7 -seed 42 \
//	                             -events goal,none,corner_kick
//
// Query flags:
//
//	-k        int     top K results (default 10)
//	-beam     int     beam width (default 4)
//	-cross            allow cross-video patterns
//	-similar          admit unannotated similar shots
//	-video    int     restrict to one video ID
//	-from-ms  int     restrict to shots starting at/after this time
//	-to-ms    int     restrict to shots starting before this time
//	                  (0 = end)
//	-domains  string  fan the pattern over the server's federation of
//	                  per-domain archives: "all" or a comma-separated
//	                  member list such as basketball,news
//
// Ingest flags:
//
//	-name     string  video name (required)
//	-seed     uint    renderer seed (default 1)
//	-events   string  comma-separated shot events, "none" for plain play
//	                  (default none,goal,none)
//	-shot-ms  int     rendered shot duration in ms (0 = server default)
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"github.com/videodb/hmmm/internal/api"
	"github.com/videodb/hmmm/internal/client"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("hmmmctl: ")

	serverURL := flag.String("server", "http://localhost:8077", "hmmmd base URL")
	flag.Usage = usage
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}

	cl := client.New(*serverURL, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	var err error
	switch args[0] {
	case "stats":
		err = runStats(ctx, cl)
	case "metrics":
		err = runMetrics(ctx, cl)
	case "events":
		err = runEvents(ctx, cl)
	case "videos":
		err = runVideos(ctx, cl)
	case "query":
		err = runQuery(ctx, cl, args[1:])
	case "parse":
		err = runParse(ctx, cl, args[1:])
	case "state":
		err = runState(ctx, cl, args[1:])
	case "rank":
		err = runRank(ctx, cl, args[1:])
	case "similar":
		err = runSimilar(ctx, cl, args[1:])
	case "feedback":
		err = runFeedback(ctx, cl, args[1:])
	case "retrain":
		err = runRetrain(ctx, cl)
	case "ingest":
		err = runIngest(ctx, cl, args[1:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		log.Fatal(err)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: hmmmctl [-server URL] <command> [args]

commands:
  stats                    model, feedback-log, and runtime statistics
  metrics                  dump the raw Prometheus /metrics text
  events                   list the event taxonomy
  videos                   list archive videos and their events
  query <pattern> [flags]  run an MATN query ("goal -> free_kick")
      -k int      top K results (default 10)
      -beam int   beam width (default 4)
      -cross      allow cross-video patterns
      -similar    admit unannotated similar shots
      -video int  restrict to one video ID
      -from-ms / -to-ms   restrict to a time window
      -domains list       federated query over these members ("all" = every one)
  parse <pattern>          validate an MATN pattern, show its network
  state <index>            inspect one model state
  rank <pattern>           rank videos for a pattern (level-2 matrices)
  similar <video-id>       videos similar to the given one
  feedback <state>...      mark a pattern positive by state indices
  retrain                  force offline retraining
  ingest [flags]           submit one synthetic video for live ingest
      -name string   video name (required)
      -seed uint     renderer seed (default 1)
      -events list   comma-separated shot events, "none" for plain play
                     (default "none,goal,none")
      -shot-ms int   rendered shot duration in ms (0 = server default)
`)
}

func runStats(ctx context.Context, cl *client.Client) error {
	st, err := cl.Stats(ctx)
	if err != nil {
		return err
	}
	renderStats(os.Stdout, st)
	return nil
}

// renderStats prints the stats report. Sections a server does not
// report — older binaries predating lanes/coalesce/shards, local
// servers with no coordinator — are omitted entirely rather than
// rendered as zero-valued blocks, so `hmmmctl stats` stays honest
// against every server version during a rolling rollout.
func renderStats(w io.Writer, st *api.StatsResponse) {
	fmt.Fprintf(w, "videos:            %d\n", st.Videos)
	fmt.Fprintf(w, "states:            %d\n", st.States)
	fmt.Fprintf(w, "concepts:          %d\n", st.Concepts)
	fmt.Fprintf(w, "features:          %d\n", st.Features)
	fmt.Fprintf(w, "distinct patterns: %d\n", st.DistinctPatterns)
	fmt.Fprintf(w, "pending feedback:  %d\n", st.PendingFeedback)
	if rt := st.Runtime; rt != nil {
		fmt.Fprintf(w, "runtime:\n")
		fmt.Fprintf(w, "  uptime:           %.0fs\n", rt.UptimeSeconds)
		fmt.Fprintf(w, "  requests:         %d (%.2f qps)\n", rt.Requests, rt.QPS)
		fmt.Fprintf(w, "  query latency:    p50=%.2fms p95=%.2fms p99=%.2fms\n",
			rt.QueryP50MS, rt.QueryP95MS, rt.QueryP99MS)
		fmt.Fprintf(w, "  sim cache hits:   %.1f%%\n", rt.SimCacheHitRate*100)
		fmt.Fprintf(w, "  inflight:         %d\n", rt.Inflight)
		fmt.Fprintf(w, "  shed / panics:    %d / %d\n", rt.Shed, rt.Panics)
		fmt.Fprintf(w, "  slow / truncated: %d / %d\n", rt.SlowQueries, rt.TruncatedQueries)
		fmt.Fprintf(w, "  model generation: %d\n", rt.ModelGeneration)
		fmt.Fprintf(w, "  retrains:         %d (%d failed)\n", rt.Retrains, rt.RetrainFailures)
		fmt.Fprintf(w, "  persist failures: %d\n", rt.PersistFailures)
		// A server predating coalescing reports no counters at all (all
		// zero after decode); one with coalescing off reports zeros too.
		// Either way there is nothing to say.
		if rt.CoalesceRequests > 0 {
			fmt.Fprintf(w, "  coalesce:         %.1f%% hit rate (%d of %d requests rode an in-flight query)\n",
				rt.CoalesceHitRate*100, rt.CoalesceHits, rt.CoalesceRequests)
		}
		if l := rt.Lanes; l != nil {
			fmt.Fprintf(w, "  lanes (fast at cost <= %d):\n", l.FastLaneCost)
			fmt.Fprintf(w, "    fast:  %d/%d in flight, %d admitted, %d shed\n",
				l.Fast.Inflight, l.Fast.Capacity, l.Fast.Admitted, l.Fast.Shed)
			fmt.Fprintf(w, "    heavy: %d/%d in flight, %d/%d queued, %d admitted, %d shed\n",
				l.Heavy.Inflight, l.Heavy.Capacity, l.Heavy.Queued, l.Heavy.QueueCap,
				l.Heavy.Admitted, l.Heavy.Shed)
		}
	}
	if ig := st.Ingest; ig != nil {
		fmt.Fprintf(w, "live ingest:\n")
		fmt.Fprintf(w, "  accepted / rejected: %d / %d\n", ig.Accepted, ig.Rejected)
		fmt.Fprintf(w, "  fresh videos:        %d (delta generation %d)\n", ig.FreshVideos, ig.DeltaGeneration)
		fmt.Fprintf(w, "  journal records:     %d (%d persist failures)\n", ig.JournalRecords, ig.PersistFailures)
		if ig.Replayed+ig.ReplaySkipped > 0 {
			fmt.Fprintf(w, "  boot replay:         %d replayed, %d already compacted\n", ig.Replayed, ig.ReplaySkipped)
		}
		fmt.Fprintf(w, "  compactions:         %d (%d failed)", ig.Compactions, ig.CompactFailures)
		if ig.CompactAfter > 0 {
			fmt.Fprintf(w, ", fold at %d fresh", ig.CompactAfter)
		}
		if ig.LastCompactUnixMS > 0 {
			fmt.Fprintf(w, ", last %s", time.UnixMilli(ig.LastCompactUnixMS).UTC().Format(time.RFC3339))
		}
		fmt.Fprintln(w)
	}
	if c := st.Coord; c != nil {
		fmt.Fprintf(w, "coordinator (%d remote shards):\n", c.Shards)
		fmt.Fprintf(w, "  queries:          %d (%d degraded)\n", c.Queries, c.DegradedQueries)
		fmt.Fprintf(w, "  retries / hedges: %d / %d (%d hedge wins)\n", c.Retries, c.Hedges, c.HedgeWins)
		fmt.Fprintf(w, "  ejections:        %d (%d readmitted)\n", c.Ejections, c.Readmissions)
		fmt.Fprintf(w, "  gen conflicts:    %d\n", c.GenConflicts)
		for _, ep := range c.Endpoints {
			fmt.Fprintf(w, "  shard %-2d %-21s %-8s gen=%d", ep.Shard, ep.Addr, ep.State, ep.Generation)
			if ep.ConsecutiveErrors > 0 {
				fmt.Fprintf(w, " consecutive_errors=%d", ep.ConsecutiveErrors)
			}
			fmt.Fprintln(w)
		}
	}
	fmt.Fprintf(w, "events:\n")
	for name, n := range st.EventCounts {
		fmt.Fprintf(w, "  %-14s %d\n", name, n)
	}
}

func runMetrics(ctx context.Context, cl *client.Client) error {
	text, err := cl.MetricsText(ctx)
	if err != nil {
		return err
	}
	fmt.Print(text)
	return nil
}

func runEvents(ctx context.Context, cl *client.Client) error {
	events, err := cl.Events(ctx)
	if err != nil {
		return err
	}
	for _, e := range events {
		fmt.Println(e)
	}
	return nil
}

func runVideos(ctx context.Context, cl *client.Client) error {
	videos, err := cl.Videos(ctx)
	if err != nil {
		return err
	}
	for _, v := range videos {
		parts := make([]string, 0, len(v.EventCounts))
		for name, n := range v.EventCounts {
			parts = append(parts, fmt.Sprintf("%s:%d", name, n))
		}
		fmt.Printf("video %-3d states=%-3d %s\n", v.ID, v.States, strings.Join(parts, " "))
	}
	return nil
}

func runQuery(ctx context.Context, cl *client.Client, args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	topK := fs.Int("k", 10, "top K results")
	beam := fs.Int("beam", 4, "beam width")
	cross := fs.Bool("cross", false, "allow cross-video patterns")
	similar := fs.Bool("similar", false, "admit unannotated similar shots")
	scopeVideo := fs.Int("video", 0, "restrict to one video ID")
	scopeFrom := fs.Int("from-ms", 0, "restrict to shots starting at/after this time")
	scopeTo := fs.Int("to-ms", 0, "restrict to shots starting before this time (0 = end)")
	domains := fs.String("domains", "", "federated query: comma-separated federation members to ask ('all' = every member; server must run with -domains)")
	if len(args) == 0 {
		return fmt.Errorf("query: missing pattern argument")
	}
	pattern := args[0]
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	if *domains != "" {
		return runFederatedQuery(ctx, cl, pattern, *domains, *topK)
	}

	start := time.Now()
	resp, err := cl.Query(ctx, api.QueryRequest{
		Pattern: pattern, TopK: *topK, Beam: *beam,
		CrossVideo: *cross, SimilarShots: *similar,
		ScopeVideo: *scopeVideo, ScopeFromMS: *scopeFrom, ScopeToMS: *scopeTo,
	})
	if err != nil {
		return err
	}
	fmt.Printf("pattern %q expanded to %d linear pattern(s); %d matches in %v\n",
		resp.Pattern, resp.Expanded, len(resp.Matches), time.Since(start).Round(time.Millisecond))
	fmt.Printf("cost: %d sim evals, %d edges, %d videos\n",
		resp.Cost.SimEvals, resp.Cost.EdgeEvals, resp.Cost.VideosSeen)
	if resp.FreshVideos > 0 {
		fmt.Printf("fresh: ranking includes %d live-ingested video(s) not yet compacted\n", resp.FreshVideos)
	}
	fmt.Println()
	for _, m := range resp.Matches {
		fmt.Printf("#%-2d score=%.4f states=%v\n", m.Rank, m.Score, m.States)
		for i := range m.Shots {
			fmt.Printf("    step %d: video %d shot %d [%s]\n",
				i+1, m.Videos[i], m.Shots[i], strings.Join(m.Events[i], ", "))
		}
	}
	if len(resp.Matches) > 0 {
		fmt.Printf("\nmark a result positive with: hmmmctl feedback %s\n",
			strings.Trim(strings.Join(strings.Fields(fmt.Sprint(resp.Matches[0].States)), " "), "[]"))
	}
	return nil
}

// runFederatedQuery executes one pattern across the server's federation
// of per-domain archives and prints the merged cross-domain ranking.
func runFederatedQuery(ctx context.Context, cl *client.Client, pattern, domains string, topK int) error {
	req := api.FederatedQueryRequest{Pattern: pattern, TopK: topK}
	if domains != "all" {
		req.Domains = strings.Split(domains, ",")
	}
	start := time.Now()
	resp, err := cl.QueryFederated(ctx, req)
	if err != nil {
		return err
	}
	fmt.Printf("pattern %q across %d member(s); %d merged matches in %v\n",
		resp.Pattern, len(resp.Members), len(resp.Matches), time.Since(start).Round(time.Millisecond))
	for _, m := range resp.Members {
		switch {
		case m.Skipped:
			fmt.Printf("  %-12s skipped: %s\n", m.Name, m.Reason)
		default:
			fmt.Printf("  %-12s %d match(es), best raw score %.4f (%d sim evals)\n",
				m.Name, m.Matches, m.MaxScore, m.Cost.SimEvals)
		}
	}
	if resp.Normalized {
		fmt.Println("scores normalized to each member's best (cross-model scores are not directly comparable)")
	}
	fmt.Println()
	for _, m := range resp.Matches {
		fmt.Printf("#%-2d [%s] score=%.4f videos=%v shots=%v\n",
			m.Rank, m.Domain, m.Score, m.Videos, m.Shots)
	}
	return nil
}

func runParse(ctx context.Context, cl *client.Client, args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("parse: missing pattern argument")
	}
	out, err := cl.Parse(ctx, args[0])
	if err != nil {
		return err
	}
	fmt.Printf("pattern: %s\n", out.Pattern)
	fmt.Printf("network: %s (%d states, %d arcs)\n", out.Network, out.States, out.Arcs)
	fmt.Printf("expands to %d linear pattern(s):\n", len(out.Expanded))
	for _, e := range out.Expanded {
		fmt.Printf("  %s\n", e)
	}
	return nil
}

func runState(ctx context.Context, cl *client.Client, args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("state: missing state index")
	}
	id, err := strconv.Atoi(args[0])
	if err != nil {
		return fmt.Errorf("state: bad index %q", args[0])
	}
	st, err := cl.State(ctx, id)
	if err != nil {
		return err
	}
	fmt.Printf("state %d: shot %d of video %d, start %dms\n", st.State, st.Shot, st.Video, st.StartMS)
	fmt.Printf("events: %s\n", strings.Join(st.Events, ", "))
	fmt.Printf("pi1:    %.6f\n", st.Pi)
	fmt.Printf("b1:     %.3f\n", st.B1)
	return nil
}

func runRank(ctx context.Context, cl *client.Client, args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("rank: missing pattern argument")
	}
	resp, err := cl.RankVideos(ctx, args[0], 10)
	if err != nil {
		return err
	}
	for i, v := range resp.Videos {
		fmt.Printf("#%-2d video %-3d score=%.6f\n", i+1, v.Video, v.Score)
	}
	return nil
}

func runSimilar(ctx context.Context, cl *client.Client, args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("similar: missing video id")
	}
	id, err := strconv.Atoi(args[0])
	if err != nil {
		return fmt.Errorf("similar: bad video id %q", args[0])
	}
	resp, err := cl.SimilarVideos(ctx, id)
	if err != nil {
		return err
	}
	for i, v := range resp.Videos {
		fmt.Printf("#%-2d video %-3d score=%.4f\n", i+1, v.Video, v.Score)
	}
	return nil
}

func runFeedback(ctx context.Context, cl *client.Client, args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("feedback: missing state indices")
	}
	states := make([]int, len(args))
	for i, a := range args {
		v, err := strconv.Atoi(a)
		if err != nil {
			return fmt.Errorf("feedback: bad state index %q", a)
		}
		states[i] = v
	}
	resp, err := cl.Feedback(ctx, states)
	if err != nil {
		return err
	}
	fmt.Printf("recorded; pending=%d retrained=%v\n", resp.Pending, resp.Retrained)
	return nil
}

func runIngest(ctx context.Context, cl *client.Client, args []string) error {
	fs := flag.NewFlagSet("ingest", flag.ExitOnError)
	name := fs.String("name", "", "video name (required)")
	seed := fs.Uint64("seed", 1, "renderer seed")
	events := fs.String("events", "none,goal,none", "comma-separated shot events")
	shotMS := fs.Int("shot-ms", 0, "rendered shot duration in ms (0 = server default)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *name == "" {
		return fmt.Errorf("ingest: -name is required")
	}
	resp, err := cl.Ingest(ctx, api.IngestRequest{
		Name:   *name,
		Seed:   *seed,
		Events: strings.Split(*events, ","),
		ShotMS: *shotMS,
	})
	if err != nil {
		return err
	}
	fmt.Printf("accepted: video %d, %d shots (%d auto-annotated)\n",
		resp.VideoID, resp.Shots, resp.AutoAnnotated)
	fmt.Printf("serving now from delta generation %d (model generation %d, %d fresh video(s))\n",
		resp.DeltaGeneration, resp.ModelGeneration, resp.FreshVideos)
	fmt.Printf("query it with: hmmmctl query <pattern> -video %d\n", resp.VideoID)
	return nil
}

func runRetrain(ctx context.Context, cl *client.Client) error {
	resp, err := cl.Retrain(ctx)
	if err != nil {
		return err
	}
	fmt.Printf("retrained=%v pending=%d\n", resp.Retrained, resp.Pending)
	return nil
}
