package perfbench

import java.util.Random
import scala.collection.mutable.ArrayBuffer
import scala.collection.parallel.CollectionConverters._
import repro.core._
import repro.graph.{CSRGraph, GraphGen}

/** Checks that recompute each result's guarantee from the returned vectors. */
object Checks {

  /** High precision: Σr ≤ λ and mass conservation |Σπ + Σr − 1| ≤ 1e-9. */
  def highPrecision(res: PPRResult, lambda: Double): Option[String] = {
    val rs = res.l1Residue
    val mass = res.l1Pi + rs
    if (!(rs <= lambda)) Some(s"sum r = $rs exceeds lambda = $lambda")
    else if (!(math.abs(mass - 1.0) <= 1e-9)) Some(s"sum pi + sum r = $mass, not 1")
    else None
  }

  /** Approximate: relative error ≤ ε on every node whose true PPR is ≥ 1/n. */
  def relativeError(pi: Array[Double], truth: Array[Double], eps: Double): Option[String] = {
    val floor = 1.0 / truth.length
    var v = 0
    while (v < truth.length) {
      val t = truth(v)
      if (t >= floor && !(math.abs(pi(v) - t) <= eps * t))
        return Some(s"node $v: estimate ${pi(v)} vs truth $t, relative error above $eps")
      v += 1
    }
    None
  }

  /** ℓ1 distance to a reference vector is at most `bound`. */
  def l1Within(pi: Array[Double], ref: Array[Double], bound: Double): Option[String] = {
    val d = Common.l1Diff(pi, ref)
    if (d <= bound) None else Some(s"l1 distance to the local reference $d exceeds $bound")
  }
}

/** Query sources, drawn as `Harness.bundles` draws them: uniformly at random
  * among nodes with positive out-degree.
  */
object Sources {
  /** Warm-up sources come from a fixed seed, so the JIT profile that timing
    * starts from is the same in every run; the timed pool comes from the
    * run's seed and excludes them.
    */
  val WarmSeed = 2021L

  def draw(g: CSRGraph, seed: Long, warm: Int, pool: Int): (IndexedSeq[Int], IndexedSeq[Int]) = {
    val warmUp = distinct(g, new Random(WarmSeed), warm, Set.empty)
    (warmUp, distinct(g, new Random(seed), pool, warmUp.toSet))
  }

  private def distinct(g: CSRGraph, rng: Random, count: Int, exclude: Set[Int]): IndexedSeq[Int] = {
    val picked = scala.collection.mutable.LinkedHashSet.empty[Int]
    while (picked.size < count) {
      val v = rng.nextInt(g.n)
      if (g.outDegree(v) > 0 && !exclude(v)) picked += v
    }
    picked.toIndexedSeq
  }
}

/** Kernel rates measured on a workload's own graph in a traced run: the
  * sequential sweep (PowItr), the FIFO queue (FwdPush) and α-walks
  * (MonteCarlo.walkCounted). Each kernel gets a third of `budgetS`, and at
  * least one call after one untimed call.
  */
object KernelProbe {
  def run(r: Run, g: CSRGraph, sources: IndexedSeq[Int], lambda: Double, budgetS: Double): Unit = {
    val alpha = Common.DefaultAlpha
    def rate(name: String)(call: Int => Long): (Double, Long, Long) = {
      call(sources.head)
      var work = 0L
      var ns = 0L
      var i = 0
      while (i == 0 || ns < budgetS / 3 * 1e9) {
        val s = sources(i % sources.length)
        val t0 = System.nanoTime()
        work += r.tracer.span(name)(call(s))
        ns += System.nanoTime() - t0
        i += 1
      }
      (work / (ns / 1e9), work, ns)
    }
    val (sweep, sweepWork, sweepNs) = rate("probe.sweep")(s => PowItr.run(g, s, lambda, alpha).stats.edgePushes)
    val (fifo, fifoWork, fifoNs) = rate("probe.fifo")(s => FwdPush.runLambda(g, s, lambda, alpha).stats.edgePushes)
    val steps = new Array[Long](1)
    val rng = new Random(r.seed)
    val (walk, walkWork, walkNs) = rate("probe.walk") { s =>
      steps(0) = 0L
      var k = 0
      while (k < 20000) { MonteCarlo.walkCounted(g, s, s, alpha, rng, steps); k += 1 }
      steps(0)
    }
    r.perLayer += Metric("core.sweep_edges_per_s", sweep, "1/s", 1,
      f"PowItr edge pushes / time at lambda $lambda: $sweepWork edges in ${sweepNs / 1e9}%.3f s")
    r.perLayer += Metric("core.fifo_edges_per_s", fifo, "1/s", 1,
      f"FIFO-FwdPush edge pushes / time at lambda $lambda: $fifoWork edges in ${fifoNs / 1e9}%.3f s")
    r.perLayer += Metric("core.scan_over_fifo", sweep / fifo, "ratio", 1,
      f"sweep rate $sweep%.4g edges/s over FIFO rate $fifo%.4g edges/s")
    r.perLayer += Metric("core.walk_steps_per_s", walk, "1/s", 1,
      f"MonteCarlo.walkCounted: $walkWork steps in ${walkNs / 1e9}%.3f s")
  }
}

/** The three workloads. Each is one JVM process with a closed loop of one
  * client thread. The stand-in graphs keep seed 42, which defines them; the
  * run's seed picks the query sources and the per-query random seeds.
  */
object Workloads {
  val Alpha: Double = Common.DefaultAlpha
  val GraphSeed = 42L
  val SetupReps = 3

  def csrBytes(g: CSRGraph): Long = 4L * (g.n + 1) + 4L * g.m

  def graphFacts(r: Run, name: String, g: CSRGraph): Unit = {
    r.facts += "graph" -> Map("name" -> name, "n" -> g.n, "m" -> g.m, "dead_ends" -> g.deadEnds.length)
    r.facts += "csr_bytes_computed" -> csrBytes(g)
    r.perLayer += Metric("graph.gen_s", r.medianSeconds("graph.gen"), "s", SetupReps,
      "GraphGen.generate (edge list + CSRGraph.fromEdges), median of the set-up repetitions")
    r.perLayer += Metric("graph.csr_bytes", csrBytes(g).toDouble, "bytes", 1, "computed as 4(n+1) + 4m")
  }

  private def heap(r: Run, what: String): Unit =
    r.endToEnd += Metric("heap_live_mb", Jvm.liveHeapMb(), "MB", 1, s"live heap after set-up and a full GC: $what")

  def pushCounts(r: Run, edges: ArrayBuffer[Double], sweeps: ArrayBuffer[Double], what: String): Unit = {
    r.perLayer += Metric("core.powerpush_edge_pushes", Samples.median(edges.toSeq), "count", edges.size,
      s"median per query, $what")
    r.perLayer += Metric("core.powerpush_sweeps", Samples.median(sweeps.toSeq), "count", sweeps.size,
      s"median per query, $what")
  }

  /** High-precision SSPPR on twitter-lite: PowerPush against FIFO-FwdPush
    * and PowItr, λ = min(1/m, 1e-8).
    */
  def hpTwitter(r: Run): Unit = {
    val ds = GraphGen.byName("twitter-lite")
    val (g, setupS) = r.setup(SetupReps)(r.timed("graph.gen")(ds.generate(GraphSeed)))
    r.endToEnd += Metric("setup_s", setupS, "s", SetupReps, "graph generation + CSR, median of the repetitions")
    heap(r, "graph")
    graphFacts(r, ds.name, g)
    val lambda = Common.defaultLambda(g.m)
    r.facts += "lambda" -> lambda
    val (warm, pool) = Sources.draw(g, r.seed, warm = 16, pool = 256)
    def hp(f: Int => PPRResult): (Int, Long) => PPRResult = (s, _) => f(s)
    val check: (Int, PPRResult) => Option[String] = (_, res) => Checks.highPrecision(res, lambda)
    val solvers = Seq(
      new Solver("cmp", "FIFO-FwdPush", "fifo", 0.7, hp(FwdPush.runLambda(g, _, lambda, Alpha)), check,
        minQueries = 10),
      new Solver("main", "PowerPush", "powerpush", 0.15, hp(PowerPush.run(g, _, lambda, Alpha)), check,
        minQueries = 100),
      new Solver("alt", "PowItr", "powitr", 0.15, hp(PowItr.run(g, _, lambda, Alpha)), check),
    )
    val edges, sweeps = ArrayBuffer.empty[Double]
    r.closedLoop(solvers, warm, warmQueries = 3, warmSeconds = 1.5, pool, interleave = true) { (sv, _, res, _, traced) =>
      if (traced && sv.role == "main") {
        val st = res.asInstanceOf[PPRResult].stats
        edges += st.edgePushes.toDouble
        sweeps += st.iterations.toDouble
      }
    }
    r.reportSolvers(solvers, _ => "ms")
    if (r.trace) {
      pushCounts(r, edges, sweeps, s"PowerPush at lambda $lambda")
      KernelProbe.run(r, g, warm, lambda, 0.15 * r.seconds)
    }
  }

  /** Approximate SSPPR at ε = 0.1 on orkut-lite: SpeedPPR-Index against
    * FORA-Index and index-free SpeedPPR. Ground truth is PowerPush at
    * λ = 1e-12, computed outside set-up and outside timing.
    */
  def approxOrkut(r: Run): Unit = {
    val eps = 0.1
    val ds = GraphGen.byName("orkut-lite")
    val ((g, speedIdx, foraIdx), setupS) = r.setup(SetupReps) {
      val g = r.timed("graph.gen")(ds.generate(GraphSeed))
      val speed = r.timed("index.speedppr_build")(WalkIndex.buildSpeedPPR(g, Alpha))
      val fora = r.timed("index.fora_build")(WalkIndex.buildFora(g, eps, Alpha))
      (g, speed, fora)
    }
    r.endToEnd += Metric("setup_s", setupS, "s", SetupReps,
      "graph generation + CSR + SpeedPPR index + FORA+ index at eps 0.1, median of the repetitions")
    heap(r, "graph + both walk indexes")
    graphFacts(r, ds.name, g)
    r.facts += "eps" -> eps
    r.facts += "index_bytes_computed" -> Map("speedppr" -> speedIdx.sizeBytes, "fora" -> foraIdx.sizeBytes)
    r.named += Metric("ratio.fora_over_speedppr_index_bytes", foraIdx.sizeBytes.toDouble / speedIdx.sizeBytes,
      "ratio", 1, s"FORA+ index ${foraIdx.sizeBytes} bytes / SpeedPPR index ${speedIdx.sizeBytes} bytes")

    // Per-source cost varies 2x; the main solver's 100 queries go over each
    // of the 48 pool sources twice, and every solver's queries are checked
    // against one truth per source, so the truths cost at most 48 PowerPush
    // runs. Results are checked after the loop, against truths computed
    // then on all cores: computing
    // them before timing changed the code PowerPush was compiled to, from
    // run to run (SpeedPPR-Index medians of 18-47 ms).
    val (warm, pool) = Sources.draw(g, r.seed, warm = 16, pool = 48)
    val truth = scala.collection.mutable.HashMap.empty[Int, Array[Double]]
    def computeTruths(sources: Seq[Int]): Unit = r.tracer.span("truth") {
      truth ++= sources.par.map(s => s -> PowerPush.run(g, s, 1e-12, Alpha).pi).seq
    }
    val check: (Int, PPRResult) => Option[String] = (s, res) => Checks.relativeError(res.pi, truth(s), eps)
    val solvers = Seq(
      new Solver("main", "SpeedPPR-Index", "speedppr_index", 0.15,
        (s, q) => SpeedPPR.runIndexed(g, s, eps, speedIdx, Alpha, seed = q), check, minQueries = 100),
      new Solver("cmp", "FORA-Index", "fora_index", 0.3,
        (s, q) => Fora.runIndexed(g, s, eps, foraIdx, Alpha, seed = q), check),
      new Solver("alt", "SpeedPPR", "speedppr", 0.55,
        (s, q) => SpeedPPR.run(g, s, eps, Alpha, seed = q), check),
    )

    // SpeedPPR's push phase alone, with the arguments SpeedPPR.run uses.
    val w = math.ceil(Common.walkCountW(g.n, eps, 1.0 / g.n)).toLong
    def pushOnly(s: Int): PPRResult = PowerPush.run(g, s, g.m.toDouble / w, Alpha, refineRMax = 1.0 / w)
    val pushMs, walkMs, walks, edges, sweeps = ArrayBuffer.empty[Double]
    r.closedLoop(solvers, warm, warmQueries = 3, warmSeconds = 1.5, pool, interleave = true,
      Some(computeTruths)) {
      (sv, s, res, ns, traced) =>
        if (traced && sv.role == "alt") {
          val t0 = System.nanoTime()
          val push = r.tracer.span("probe.speedppr_push")(pushOnly(s))
          val pms = (System.nanoTime() - t0) / 1e6
          pushMs += pms
          walkMs += ns / 1e6 - pms
          walks += (res.asInstanceOf[PPRResult].stats.pushOps - push.stats.pushOps).toDouble
          edges += push.stats.edgePushes.toDouble
          sweeps += push.stats.iterations.toDouble
        }
    }
    r.reportSolvers(solvers, _ => "ms")
    if (r.trace) {
      r.perLayer += Metric("core.speedppr_push_ms_p50", Samples.median(pushMs.toSeq), "ms", pushMs.size,
        s"PowerPush.run(g, s, m/W, refineRMax = 1/W) alone, W = $w")
      r.perLayer += Metric("core.speedppr_walk_ms_p50", Samples.median(walkMs.toSeq), "ms", walkMs.size,
        "SpeedPPR time minus its push time, same source")
      r.perLayer += Metric("core.speedppr_walks", Samples.median(walks.toSeq), "count", walks.size,
        s"walks per SpeedPPR query (at most m = ${g.m})")
      pushCounts(r, edges, sweeps, "SpeedPPR's push phase")
      val speedS = r.medianSeconds("index.speedppr_build")
      val foraS = r.medianSeconds("index.fora_build")
      r.perLayer += Metric("index.speedppr_build_s", speedS, "s", SetupReps, "WalkIndex.buildSpeedPPR, median")
      r.perLayer += Metric("index.fora_build_s", foraS, "s", SetupReps, "WalkIndex.buildFora at eps 0.1, median")
      r.perLayer += Metric("index.build_walks_per_s", (speedIdx.totalWalks + foraIdx.totalWalks) / (speedS + foraS),
        "1/s", SetupReps, s"${speedIdx.totalWalks} + ${foraIdx.totalWalks} stored walks over both median build times")
      r.perLayer += Metric("index.speedppr_bytes", speedIdx.sizeBytes.toDouble, "bytes", 1, "WalkIndex.sizeBytes")
      r.perLayer += Metric("index.fora_bytes", foraIdx.sizeBytes.toDouble, "bytes", 1, "WalkIndex.sizeBytes")
      r.perLayer += r.named.find(_.name == "ratio.fora_over_speedppr_index_bytes").get
      KernelProbe.run(r, g, warm, Common.defaultLambda(g.m), 0.15 * r.seconds)
    }
  }
}
