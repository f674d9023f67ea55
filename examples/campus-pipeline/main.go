// Campus pipeline: generate a small synthetic campus dataset, round-trip it
// through Zeek log files on disk, run the full analysis pipeline on the
// reloaded data, and print the paper's tables and figures — the end-to-end
// measurement workflow of the paper at laptop scale.
package main

import (
	"fmt"
	"os"
	"path/filepath"

	"certchains"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "campus-pipeline:", err)
		os.Exit(1)
	}
}

func run() error {
	cfg := certchains.DefaultScenarioConfig()
	cfg.Seed = 42
	cfg.Scale = 0.002
	scenario, err := certchains.GenerateScenario(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("generated %d chain observations\n", len(scenario.Observations))

	// Materialize as Zeek logs — the exact files the paper's collection
	// produced — then reload them, as a real deployment would.
	dir, err := os.MkdirTemp("", "campus-pipeline")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	sslPath := filepath.Join(dir, "ssl.log")
	x509Path := filepath.Join(dir, "x509.log")

	sslF, err := os.Create(sslPath)
	if err != nil {
		return err
	}
	x509F, err := os.Create(x509Path)
	if err != nil {
		return err
	}
	if err := certchains.WriteZeekLogs(scenario.Observations, sslF, x509F, 10); err != nil {
		return err
	}
	sslF.Close()
	x509F.Close()

	sslIn, err := os.Open(sslPath)
	if err != nil {
		return err
	}
	defer sslIn.Close()
	x509In, err := os.Open(x509Path)
	if err != nil {
		return err
	}
	defer x509In.Close()
	observations, err := certchains.LoadZeekLogs(sslIn, x509In)
	if err != nil {
		return err
	}
	fmt.Printf("reloaded %d observations from %s\n\n", len(observations), dir)

	pipeline := certchains.NewPipeline(scenario.DB, scenario.CT, scenario.Classifier, scenario.InterceptRegistry)
	report := pipeline.RunParallel(observations, 0) // 0 workers = GOMAXPROCS
	fmt.Print(report.Render())

	fmt.Println()
	fmt.Print(certchains.AnalyzeRevisit(scenario).Render())
	return nil
}
