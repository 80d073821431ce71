let () =
  Alcotest.run "velodrome"
    [
      Test_util.suite;
      Test_trace.suite;
      Test_codec.suite;
      Test_stream.suite;
      Test_oracle.suite;
      Test_analysis.suite;
      Test_core.suite;
      Test_sim.suite;
      Test_lang.suite;
      Test_statics.suite;
      Test_predict.suite;
      Test_backends.suite;
      Test_serve.suite;
      Test_modelcheck.suite;
      Regressions.suite;
      Test_workloads.suite;
      Test_inject.suite;
      Test_harness.suite;
    ]
