// Testbed example: runs the real distributed prototype — coordinator,
// four local agents, token-bucket-paced TCP data plane — entirely
// in-process, registers CoFlows through the REST API like a compute
// framework would, and prints measured CCTs.
//
//	go run ./examples/testbed
package main

import (
	"fmt"
	"log"
	"time"

	"saath"
)

func main() {
	const ports = 4

	scheduler, err := saath.NewScheduler("saath", saath.DefaultParams())
	if err != nil {
		log.Fatal(err)
	}
	coord, err := saath.NewCoordinator(saath.CoordinatorConfig{
		Scheduler: scheduler,
		NumPorts:  ports,
		PortRate:  saath.Rate(25e6), // 25 MB/s per port on localhost
		Delta:     10 * time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	go coord.Serve()
	defer coord.Close()
	fmt.Printf("coordinator: control=%s http=%s\n", coord.ControlAddr(), coord.HTTPAddr())

	agents := make([]*saath.Agent, ports)
	for i := range agents {
		agents[i], err = saath.NewAgent(saath.AgentConfig{
			Port:            i,
			CoordinatorAddr: coord.ControlAddr(),
			StatsInterval:   10 * time.Millisecond,
		})
		if err != nil {
			log.Fatal(err)
		}
		defer agents[i].Close()
		fmt.Printf("agent %d: data=%s\n", i, agents[i].DataAddr())
	}

	// The framework side: register a shuffle-like CoFlow (2 mappers ->
	// 2 reducers) and two short single-flow CoFlows that contend with
	// it, the Fig. 1 situation on real sockets.
	client := saath.NewClient(coord.HTTPAddr())
	specs := []*saath.Spec{
		{ID: 1, Flows: []saath.FlowSpec{
			{Src: 0, Dst: 2, Size: 1 * saath.MB},
			{Src: 0, Dst: 3, Size: 1 * saath.MB},
			{Src: 1, Dst: 2, Size: 1 * saath.MB},
			{Src: 1, Dst: 3, Size: 1 * saath.MB},
		}},
		{ID: 2, Flows: []saath.FlowSpec{{Src: 0, Dst: 3, Size: 256 * saath.KB}}},
		{ID: 3, Flows: []saath.FlowSpec{{Src: 1, Dst: 2, Size: 256 * saath.KB}}},
	}
	for _, s := range specs {
		if err := client.Register(s); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("registered coflow %d (%d flows, %.1f MB)\n",
			s.ID, s.Width(), float64(s.TotalSize())/float64(saath.MB))
	}

	results, err := client.WaitForResults(len(specs), time.Minute)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ncompleted:")
	for _, r := range results {
		fmt.Printf("  coflow %d: width %d, %.1f MB, CCT %v\n",
			r.ID, r.Width, float64(r.Bytes)/float64(saath.MB), r.CCT.Round(time.Millisecond))
	}
	calls, mean, max, _ := coord.ScheduleLatency()
	fmt.Printf("\ncoordinator: %d schedule computations, mean %v, max %v\n", calls, mean, max)
}
