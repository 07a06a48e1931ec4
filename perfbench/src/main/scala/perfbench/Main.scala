package perfbench

import java.nio.file.Paths

/** Benchmark entry point, started by `run.py`:
  * `Main --workload <name> --seed <n> --seconds <s> --trace <0|1> --out <dir>`.
  *
  * Prints a human-readable summary, a `REPORT` line with every number and
  * the host facts, and as its last line the result object: with tracing off
  * the end-to-end metrics, with tracing on the per-layer metrics.
  */
object Main {

  /** Every per-layer metric name and unit. A workload reports 0 for a layer
    * it does not exercise (no walks, index or Spark on hp-twitter, and so on).
    */
  val PerLayer: Seq[(String, String)] = Seq(
    "graph.gen_s" -> "s", "graph.csr_bytes" -> "bytes",
    "core.sweep_edges_per_s" -> "1/s", "core.fifo_edges_per_s" -> "1/s", "core.scan_over_fifo" -> "ratio",
    "core.walk_steps_per_s" -> "1/s",
    "core.powerpush_edge_pushes" -> "count", "core.powerpush_sweeps" -> "count",
    "core.speedppr_push_ms_p50" -> "ms", "core.speedppr_walk_ms_p50" -> "ms", "core.speedppr_walks" -> "count",
    "index.speedppr_build_s" -> "s", "index.fora_build_s" -> "s", "index.build_walks_per_s" -> "1/s",
    "index.speedppr_bytes" -> "bytes", "index.fora_bytes" -> "bytes",
    "jvm.main_alloc_bytes_per_query" -> "bytes", "jvm.cmp_alloc_bytes_per_query" -> "bytes",
    "jvm.alt_alloc_bytes_per_query" -> "bytes", "jvm.gc_ms" -> "ms",
  ) ++ Seq("main", "cmp").flatMap(role => Seq(
    s"spark.${role}_jobs_per_query" -> "count", s"spark.${role}_tasks_per_query" -> "count",
    s"spark.${role}_ms_per_job" -> "ms", s"spark.${role}_executor_busy_frac" -> "ratio",
    s"spark.${role}_shuffle_write_bytes_per_query" -> "bytes",
  )) ++ Seq(
    "trace.main_ms_p50" -> "ms", "trace.overhead_ms" -> "ms",
    "ratio.cmp_over_main_p50" -> "ratio", "ratio.alt_over_main_p50" -> "ratio",
    "ratio.fora_over_speedppr_index_bytes" -> "ratio",
  )

  val ByName: Map[String, Run => Unit] = Map(
    "hp-twitter" -> perfbench.Workloads.hpTwitter,
    "approx-orkut" -> perfbench.Workloads.approxOrkut,
    "spark-dblp" -> SparkWorkload.run,
  )

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    val workload = opts("workload")
    val body = ByName.getOrElse(workload, sys.error(s"unknown workload $workload"))
    val run = new Run(workload, opts("seed").toLong, opts("seconds").toInt, opts("trace") == "1")
    run.facts ++= Host.facts
    body(run)

    if (run.trace) {
      val have = run.perLayer.map(_.name).toSet
      run.perLayer ++= PerLayer.collect { case (name, unit) if !have(name) =>
        Metric(name, 0.0, unit, 0, "not exercised by this workload") }
      run.tracer.writeJsonLines(Paths.get(opts("out"), s"spans-$workload-seed${run.seed}.jsonl"))
    }
    val reported = if (run.trace) run.perLayer else run.endToEnd

    def line(m: Metric) = f"  ${m.name}%-42s ${m.value}%14.6g ${m.unit}%-6s n=${m.n}%-5d ${m.note}"
    println(s"workload=$workload seed=${run.seed} seconds=${run.seconds} trace=${if (run.trace) 1 else 0}")
    println("by solver:"); run.named.foreach(m => println(line(m)))
    println(if (run.trace) "per-layer:" else "end-to-end:"); reported.foreach(m => println(line(m)))
    run.failures.foreach(f => println(s"  FAILED $f"))
    if (run.trace) run.tracer.summary.foreach { case (name, count, total, self) =>
      println(f"  span $name%-28s count=$count%-6d total=$total%.1f ms self=$self%.1f ms")
    }
    def metricJson(m: Metric) = Json.obj("value" -> m.value, "unit" -> m.unit, "n" -> m.n, "note" -> m.note)
    println("REPORT " + Json.obj(
      "workload" -> workload, "seed" -> run.seed, "seconds" -> run.seconds, "trace" -> run.trace,
      "host" -> Json.Raw(Json.obj(run.facts.toSeq: _*)),
      "by_solver" -> Json.Raw(Json.obj(run.named.toSeq.map(m => m.name -> Json.Raw(metricJson(m))): _*)),
      "metrics" -> Json.Raw(Json.obj(reported.toSeq.map(m => m.name -> Json.Raw(metricJson(m))): _*)),
      "failures" -> run.failures.toSeq,
    ))
    println(Json.obj(
      "correct" -> (run.failed == 0),
      "attempted" -> run.attempted,
      "failed" -> run.failed,
      "metrics" -> Json.Raw(Json.obj(reported.toSeq.map(m =>
        m.name -> Json.Raw(Json.obj("value" -> m.value, "unit" -> m.unit))): _*)),
    ))
  }
}
