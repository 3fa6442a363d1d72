let () =
  Alcotest.run "amcast_wan"
    (Test_des.suites @ Test_net.suites @ Test_overlay.suites
   @ Test_runtime.suites
   @ Test_fd.suites @ Test_consensus.suites @ Test_rmcast.suites
   @ Test_a1.suites @ Test_a2.suites @ Test_baselines.suites
   @ Test_partitions.suites @ Test_rsm.suites @ Test_harness.suites
   @ Test_properties.suites @ Test_checkers.suites @ Test_parallel.suites
   @ Test_fastlanes.suites @ Test_generic.suites @ Test_nemesis.suites
   @ Test_soak.suites
   @ Test_mc.suites @ Test_throughput.suites @ Test_scale.suites
   @ Test_transport.suites @ Test_stamp_order.suites
   @ Test_event_core.suites @ Test_a1_stages.suites @ Test_order_pins.suites)
