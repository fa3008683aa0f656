let () =
  Alcotest.run "rsin"
    [
      ("util", Test_util.suite);
      ("obs", Test_obs.suite);
      ("bench_report", Test_bench_report.suite);
      ("flow", Test_flow.suite);
      ("flow2", Test_flow2.suite);
      ("csr", Test_csr.suite);
      ("lp", Test_lp.suite);
      ("topology", Test_topology.suite);
      ("topology2", Test_topology2.suite);
      ("core", Test_core.suite);
      ("netgraph", Test_netgraph.suite);
      ("distributed", Test_distributed.suite);
      ("protocol", Test_protocol.suite);
      ("sim", Test_sim.suite);
      ("engine", Test_engine.suite);
      ("serve", Test_serve.suite);
      ("fault", Test_fault.suite);
      ("hardware", Test_hardware.suite);
      ("gates", Test_gates.suite);
      ("switchbox", Test_switchbox.suite);
      ("queueing", Test_queueing.suite);
      ("taskgraph", Test_taskgraph.suite);
      ("arbiter", Test_arbiter.suite);
      ("fabric", Test_fabric.suite);
      ("packet", Test_fabric.packet_suite);
      ("edge", Test_edge.suite);
      ("integration", Test_integration.suite);
      ("balance", Test_balance.suite);
      ("guard", Test_guard.suite);
    ]
