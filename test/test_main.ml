let () =
  Alcotest.run "eof"
    [
      ("util", Test_util.suite);
      ("obs", Test_obs.suite);
      ("hw", Test_hw.suite);
      ("exec", Test_exec.suite);
      ("debug", Test_debug.suite);
      ("rtos", Test_rtos.suite);
      ("apps", Test_apps.suite);
      ("spec", Test_spec.suite);
      ("agent", Test_agent.suite);
      ("core", Test_core.suite);
      ("backend", Test_backend.suite);
      ("farm", Test_farm.suite);
      ("resilience", Test_resilience.suite);
      ("baselines", Test_baselines.suite);
      ("expt", Test_expt.suite);
      ("hub", Test_hub.suite);
      ("decoders", Test_decoders.suite);
      ("bugs", Test_bugs.suite);
    ]
