let run ~seed ~iterations ~entry_api ~sample_modules build =
  Appfuzz.run
    {
      Appfuzz.seed;
      iterations;
      entry_api;
      max_buf = 256;
      guidance = Appfuzz.Bp_sampling 6;
      sample_modules;
    }
    build
