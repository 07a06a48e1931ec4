package repro.harness

import java.util.Random
import repro.core._
import repro.graph.{CSRGraph, GraphGen}

/** Shared experiment harness used by the `bench/` ScalaTest suites and the
  * `jobs/` spark-submit entrypoints. Each table of the paper's evaluation
  * section (and each headline figure rendered as a table) has one `*Table`
  * method that returns the formatted rows it prints.
  *
  * Environment knobs:
  *  - REPRO_BENCH_SCALE    node-count multiplier for the stand-ins (default 1.0)
  *  - REPRO_BENCH_SOURCES  query sources per dataset (default 5; paper uses 30)
  *  - REPRO_BENCH_DATASETS comma-separated stand-in names to run (default all)
  */
object Harness {

  val Alpha: Double = Common.DefaultAlpha

  final case class Bundle(ds: GraphGen.Dataset, g: CSRGraph,
                          sources: IndexedSeq[Int], lambda: Double)

  private def envDouble(k: String, d: Double): Double =
    sys.env.get(k).map(_.toDouble).getOrElse(d)
  private def envInt(k: String, d: Int): Int =
    sys.env.get(k).map(_.toInt).getOrElse(d)

  lazy val bundles: Seq[Bundle] = {
    val scale = envDouble("REPRO_BENCH_SCALE", 1.0)
    val nSources = envInt("REPRO_BENCH_SOURCES", 5)
    val filter = sys.env.get("REPRO_BENCH_DATASETS").map(_.split(",").map(_.trim).toSet)
    GraphGen.datasets
      .filter(d => filter.forall(_.contains(d.name)))
      .map { d0 =>
        val d = if (scale == 1.0) d0 else d0.copy(n = math.max(60, (d0.n * scale).toInt))
        val g = d.generate(seed = 42L)
        val rng = new Random(2021L)
        // Paper: query sources generated uniformly at random (§8); we also
        // require a positive out-degree so the source is not a dead end.
        val sources = Vector.fill(nSources * 3)(rng.nextInt(g.n))
          .filter(g.outDegree(_) > 0).distinct.take(nSources)
        Bundle(d, g, sources, Common.defaultLambda(g.m))
      }
  }

  /** Ground-truth PPR per (dataset, source): PowerPush at λ = 1e-12 (the
    * paper uses λ = 1e-17 with C++ doubles; 1e-12 is ample at our scale).
    */
  private val truthCache = scala.collection.mutable.HashMap.empty[(String, Int), Array[Double]]
  def groundTruth(b: Bundle, s: Int): Array[Double] = synchronized {
    truthCache.getOrElseUpdate((b.ds.name, s),
      PowerPush.run(b.g, s, 1e-12, Alpha).pi)
  }

  def timeSec[T](f: => T): (T, Double) = {
    val t0 = System.nanoTime()
    val out = f
    (out, (System.nanoTime() - t0) / 1e9)
  }

  def fmt(d: Double): String =
    if (d == 0.0) "0"
    else if (math.abs(d) >= 100) f"$d%.0f"
    else if (math.abs(d) >= 1) f"$d%.2f"
    else if (math.abs(d) >= 0.001) f"$d%.4f"
    else f"$d%.2e"

  def mb(bytes: Long): String = f"${bytes / 1048576.0}%.2f MB"

  def renderTable(title: String, header: Seq[String], rows: Seq[Seq[String]]): String = {
    val all = header +: rows
    val widths = header.indices.map(i => all.map(_(i).length).max)
    def line(r: Seq[String]) =
      r.zip(widths).map { case (c, w) => c.padTo(w, ' ') }.mkString("| ", " | ", " |")
    val sep = widths.map("-" * _).mkString("|-", "-|-", "-|")
    (s"== $title ==" +: line(header) +: sep +: rows.map(line)).mkString("\n")
  }

  // ------------------------------------------------------------------
  // Table 1 — dataset statistics
  // ------------------------------------------------------------------
  def table1(): String = {
    val rows = bundles.map { b =>
      Seq(b.ds.name, b.ds.paperName, b.g.n.toString, b.g.m.toString,
          f"${b.g.avgDegree}%.2f",
          if (b.ds.directed) "directed" else "undirected",
          b.ds.paperN.toString, b.ds.paperM.toString, f"${b.ds.paperM.toDouble / b.ds.paperN}%.2f")
    }
    renderTable("Table 1: datasets (stand-in vs paper)",
      Seq("name", "paper", "n", "m", "m/n", "type", "paper-n", "paper-m", "paper-m/n"), rows)
  }

  // ------------------------------------------------------------------
  // Table 2 — index size and construction time
  // ------------------------------------------------------------------
  final case class IndexReport(name: String,
                               bepiBytes: Long, bepiSec: Double,
                               foraBytes: Long, foraSec: Double,
                               speedBytes: Long, speedSec: Double)

  def bepiHubCount(g: CSRGraph): Int = math.min(48, math.max(8, g.n / 100))

  private val indexCache = scala.collection.mutable.HashMap.empty[String,
    ((BePILite.Index, WalkIndex, WalkIndex), (Double, Double))]

  /** Build (and cache) the three indexes of Table 2 for a dataset:
    * BePI-lite, the FORA+ walk index at ε = 0.1 (the smallest ε in the
    * paper's sweep — the setting §8.2 builds it with), and the ε-independent
    * SpeedPPR index.
    */
  def indexes(b: Bundle): (BePILite.Index, WalkIndex, WalkIndex) = indexesTimed(b)._1

  /** [[indexes]] with the FORA+ and SpeedPPR index build times (s). */
  private def indexesTimed(b: Bundle) = synchronized {
    indexCache.getOrElseUpdate(b.ds.name, {
      val bepi = BePILite.preprocess(b.g, bepiHubCount(b.g), Alpha)
      val (fora, foraSec) = timeSec(WalkIndex.buildFora(b.g, eps = 0.1, Alpha))
      val (speed, speedSec) = timeSec(WalkIndex.buildSpeedPPR(b.g, Alpha))
      ((bepi, fora, speed), (foraSec, speedSec))
    })
  }

  def table2(): (String, Seq[IndexReport]) = {
    val reports = bundles.map { b =>
      val ((bepi, fora, speed), (foraSec, speedSec)) = indexesTimed(b)
      IndexReport(b.ds.name, bepi.sizeBytes, bepi.buildMillis / 1000.0,
                  fora.sizeBytes, foraSec, speed.sizeBytes, speedSec)
    }
    val rows = reports.map { r =>
      Seq(r.name, mb(r.bepiBytes), mb(r.foraBytes), mb(r.speedBytes),
          fmt(r.bepiSec), fmt(r.foraSec), fmt(r.speedSec),
          f"${r.foraBytes.toDouble / r.speedBytes}%.1fx",
          f"${r.foraSec / math.max(1e-9, r.speedSec)}%.1fx")
    }
    (renderTable("Table 2: index size and construction time (seconds)",
      Seq("dataset", "BePI-lite size", "FORA size", "SpeedPPR size",
          "BePI-lite s", "FORA s", "SpeedPPR s", "FORA/Speed size", "FORA/Speed time"),
      rows), reports)
  }

  // ------------------------------------------------------------------
  // Figure 4 as a table — high-precision query time
  // ------------------------------------------------------------------
  final case class HPReport(name: String, powItr: Double, fifo: Double,
                            powerPush: Double, bepi: Double)

  def fig4Table(): (String, Seq[HPReport]) = {
    val reports = bundles.map { b =>
      val (bepiIdx, _, _) = indexes(b)
      // One untimed warm-up per algorithm (JIT), then the median over the
      // query sources — a single GC/compile hiccup must not decide a table.
      def med(run: Int => Unit): Double = {
        run(b.sources.head)
        val times = b.sources.map(s => timeSec(run(s))._2).sorted
        times(times.size / 2)
      }
      val tPow  = med(s => PowItr.run(b.g, s, b.lambda, Alpha))
      val tFifo = med(s => FwdPush.runLambda(b.g, s, b.lambda, Alpha))
      val tPP   = med(s => PowerPush.run(b.g, s, b.lambda, Alpha))
      val tBe   = med(s => BePILite.query(bepiIdx, s))
      HPReport(b.ds.name, tPow, tFifo, tPP, tBe)
    }
    val rows = reports.map { r =>
      def ratio(x: Double) = f"${x / r.powerPush}%.2fx"
      Seq(r.name, fmt(r.powItr), fmt(r.fifo), fmt(r.powerPush), fmt(r.bepi),
          ratio(r.powItr), ratio(r.fifo), ratio(r.bepi))
    }
    (renderTable("Figure 4 as table: high-precision median query time (s), lambda = min(1/m, 1e-8)",
      Seq("dataset", "PowItr", "FIFO-FwdPush", "PowerPush", "BePI-lite",
          "PowItr/PP", "FIFO/PP", "BePI/PP"),
      rows), reports)
  }

  // ------------------------------------------------------------------
  // Figure 6 as a table — residue updates to reach an l1 error
  // ------------------------------------------------------------------
  def fig6Table(): String = {
    val thresholds = Seq(1e-2, 1e-4, 1e-6, 1e-8)
    def pushesAt(trace: Trace): Seq[String] =
      thresholds.map { t =>
        trace.points.find(_._2 <= t).map(p => (p._1 / 1e6).formatted("%.1fM")).getOrElse("-")
      }
    val rows = bundles.flatMap { b =>
      val s = b.sources.head
      val tPow = new Trace; PowItr.run(b.g, s, b.lambda, Alpha, tPow)
      val tFifo = new Trace; FwdPush.runLambda(b.g, s, b.lambda, Alpha, tFifo, traceEvery = math.max(1L, b.g.m / 4L))
      val tPP = new Trace; PowerPush.run(b.g, s, b.lambda, Alpha, trace = tPP, traceEvery = math.max(1L, b.g.m / 4L))
      Seq(
        (b.ds.name +: "PowItr" +: pushesAt(tPow)),
        (b.ds.name +: "FIFO-FwdPush" +: pushesAt(tFifo)),
        (b.ds.name +: "PowerPush" +: pushesAt(tPP)),
      )
    }
    renderTable("Figure 6 as table: residue updates (edge pushes) to reach l1 error",
      Seq("dataset", "algorithm", "<=1e-2", "<=1e-4", "<=1e-6", "<=1e-8"), rows)
  }

  // ------------------------------------------------------------------
  // Figures 7 & 8 as tables — approximate query time and l1 error vs eps
  // ------------------------------------------------------------------
  final case class ApproxCell(algo: String, eps: Double, sec: Double, l1: Double)

  lazy val approxResults: Seq[(String, Seq[ApproxCell])] = {
    val epss = Seq(0.1, 0.2, 0.3, 0.4, 0.5)
    bundles.map { b =>
      val s = b.sources.head
      val truth = groundTruth(b, s)
      val (_, foraIdx, speedIdx) = indexes(b)
      def cell(algo: String, eps: Double)(run: => PPRResult): ApproxCell = {
        val (res, sec) = timeSec(run)
        ApproxCell(algo, eps, sec, Common.l1Diff(res.pi, truth))
      }
      val cells = epss.flatMap { eps =>
        Seq(
          cell("FORA", eps)(Fora.run(b.g, s, eps, Alpha, seed = 5)),
          cell("FORA-Index", eps)(Fora.runIndexed(b.g, s, eps, foraIdx, Alpha, seed = 5)),
          cell("ResAcc", eps)(ResAcc.run(b.g, s, eps, Alpha, seed = 5)),
          cell("SpeedPPR", eps)(SpeedPPR.run(b.g, s, eps, Alpha, seed = 5)),
          cell("SpeedPPR-Index", eps)(SpeedPPR.runIndexed(b.g, s, eps, speedIdx, Alpha, seed = 5)),
        )
      } :+ {
        val (res, sec) = timeSec(PowerPush.run(b.g, s, b.lambda, Alpha))
        ApproxCell("PowerPush(baseline)", Double.NaN, sec, Common.l1Diff(res.pi, truth))
      }
      (b.ds.name, cells)
    }
  }

  def fig7Table(): String = {
    val rows = approxResults.flatMap { case (name, cells) =>
      cells.groupBy(_.algo).toSeq.sortBy(_._1).map { case (algo, cs) =>
        name +: algo +: Seq(0.1, 0.2, 0.3, 0.4, 0.5).map { e =>
          cs.find(c => c.eps == e || c.eps.isNaN).map(c => fmt(c.sec)).getOrElse("-")
        }
      }
    }
    renderTable("Figure 7 as table: approximate query time (s) vs eps",
      Seq("dataset", "algorithm", "eps=0.1", "eps=0.2", "eps=0.3", "eps=0.4", "eps=0.5"), rows)
  }

  def fig8Table(): String = {
    val rows = approxResults.flatMap { case (name, cells) =>
      cells.groupBy(_.algo).toSeq.sortBy(_._1).map { case (algo, cs) =>
        name +: algo +: Seq(0.1, 0.2, 0.3, 0.4, 0.5).map { e =>
          cs.find(c => c.eps == e || c.eps.isNaN).map(c => fmt(c.l1)).getOrElse("-")
        }
      }
    }
    renderTable("Figure 8 as table: actual l1 error vs eps (ground truth: PowerPush lambda=1e-12)",
      Seq("dataset", "algorithm", "eps=0.1", "eps=0.2", "eps=0.3", "eps=0.4", "eps=0.5"), rows)
  }
}
