package gen

import (
	"fmt"
	"math/rand"

	"repro/internal/stream"
)

// Template names a hand-modelled real-world stream application shape. The
// paper motivates its synthetic generator with such applications
// ([19]–[24]); these templates provide concrete instances for the
// transferapps experiment and tests, parameterized by a width factor so they scale from a
// dozen to hundreds of operators.
type Template string

// Available templates.
const (
	// WordCount is the classic split→count→aggregate topology.
	WordCount Template = "wordcount"
	// LogAnalytics models parse→filter→enrich→window→alert pipelines.
	LogAnalytics Template = "log-analytics"
	// FraudDetection models a scoring DAG with feature fan-out and joins.
	FraudDetection Template = "fraud-detection"
	// IoTMonitoring models many sensor partitions feeding shared
	// aggregation and storage stages.
	IoTMonitoring Template = "iot-monitoring"
)

// AllTemplates lists every template.
func AllTemplates() []Template {
	return []Template{WordCount, LogAnalytics, FraudDetection, IoTMonitoring}
}

// FromTemplate instantiates a template. width scales the parallel stages
// (width ≥ 1); rng randomizes per-operator demands around the template's
// profile. The returned graph validates and has rates at the source-rate
// scale (selectivities shrink at fan-in joins).
func FromTemplate(t Template, width int, sourceRate float64, rng *rand.Rand) (*stream.Graph, error) {
	if width < 1 {
		return nil, fmt.Errorf("gen: template width %d < 1", width)
	}
	g := stream.NewGraph(sourceRate)
	jitter := func(x float64) float64 { return x * (0.7 + 0.6*rng.Float64()) }
	node := func(name string, ipt, payload, sel float64) int {
		return g.AddNode(stream.Node{Name: name, IPT: jitter(ipt), Payload: jitter(payload), Selectivity: sel})
	}
	switch t {
	case WordCount:
		src := node("lines", 2e4, 8e4, 1)
		var counters []int
		for i := 0; i < width; i++ {
			split := node(fmt.Sprintf("split-%d", i), 6e4, 3e4, 1)
			count := node(fmt.Sprintf("count-%d", i), 4e4, 6e3, 0.2)
			g.AddEdge(src, split, 0)
			g.AddEdge(split, count, 0)
			counters = append(counters, count)
		}
		agg := node("aggregate", 8e4, 2e3, 1.0/float64(width))
		sink := node("store", 1e4, 0, 1)
		for _, c := range counters {
			g.AddEdge(c, agg, 0)
		}
		g.AddEdge(agg, sink, 0)

	case LogAnalytics:
		src := node("ingest", 3e4, 1e5, 1)
		parse := node("parse", 1.2e5, 7e4, 1)
		g.AddEdge(src, parse, 0)
		var windows []int
		for i := 0; i < width; i++ {
			filter := node(fmt.Sprintf("filter-%d", i), 3e4, 5e4, 0.6)
			enrich := node(fmt.Sprintf("enrich-%d", i), 9e4, 6e4, 1)
			window := node(fmt.Sprintf("window-%d", i), 1.4e5, 1e4, 0.3)
			g.AddEdge(parse, filter, 0)
			g.AddEdge(filter, enrich, 0)
			g.AddEdge(enrich, window, 0)
			windows = append(windows, window)
		}
		alert := node("alert", 5e4, 2e3, 1.0/float64(width))
		dash := node("dashboard", 2e4, 0, 1)
		store := node("archive", 1e4, 0, 1)
		for _, w := range windows {
			g.AddEdge(w, alert, 0)
			g.AddEdge(w, store, 0)
		}
		g.AddEdge(alert, dash, 0)

	case FraudDetection:
		src := node("transactions", 2e4, 6e4, 1)
		var features []int
		for i := 0; i < width; i++ {
			f := node(fmt.Sprintf("feature-%d", i), 1.1e5, 2e4, 1)
			g.AddEdge(src, f, 0)
			features = append(features, f)
		}
		join := node("feature-join", 1.6e5, 9e4, 1.0/float64(width))
		model1 := node("rules-model", 9e4, 8e3, 1)
		model2 := node("ml-model", 2.2e5, 8e3, 1)
		ensemble := node("ensemble", 6e4, 4e3, 0.5)
		block := node("block-sink", 1e4, 0, 1)
		review := node("review-sink", 1e4, 0, 1)
		for _, f := range features {
			g.AddEdge(f, join, 0)
		}
		g.AddEdge(join, model1, 0)
		g.AddEdge(join, model2, 0)
		g.AddEdge(model1, ensemble, 0)
		g.AddEdge(model2, ensemble, 0)
		g.AddEdge(ensemble, block, 0)
		g.AddEdge(ensemble, review, 0)

	case IoTMonitoring:
		var aggs []int
		shared := node("fleet-agg", 1.3e5, 1e4, 0.2/float64(width))
		for i := 0; i < width; i++ {
			sensor := node(fmt.Sprintf("sensor-gw-%d", i), 2e4, 4e4, 1)
			clean := node(fmt.Sprintf("clean-%d", i), 5e4, 3e4, 0.8)
			local := node(fmt.Sprintf("local-agg-%d", i), 7e4, 8e3, 0.3)
			g.AddEdge(sensor, clean, 0)
			g.AddEdge(clean, local, 0)
			g.AddEdge(local, shared, 0)
			aggs = append(aggs, local)
		}
		tsdb := node("tsdb", 3e4, 0, 1)
		anomaly := node("anomaly", 1.5e5, 3e3, 1)
		pager := node("pager", 5e3, 0, 1)
		g.AddEdge(shared, tsdb, 0)
		g.AddEdge(shared, anomaly, 0)
		g.AddEdge(anomaly, pager, 0)
		_ = aggs

	default:
		return nil, fmt.Errorf("gen: unknown template %q", t)
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("gen: template %s: %w", t, err)
	}
	return g, nil
}
