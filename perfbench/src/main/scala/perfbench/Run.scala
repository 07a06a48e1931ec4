package perfbench

import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer

/** One solver of a workload.
  *
  * @param role  the slot its end-to-end metrics are reported under: `main`
  *              (the workload's primary solver), `cmp` (its main competitor)
  *              or `alt` (a third solver)
  * @param key   the solver's own metric prefix, as in `powerpush_ms_p50`
  * @param share fraction of the run's measured seconds spent on this solver
  * @param query the timed call into the program, given (source, query seed)
  * @param check recomputes the result's guarantee from the returned vectors;
  *              returns why it fails, if it does
  * @param minQueries queries it runs even after its share of the time has passed
  */
final class Solver[R](val role: String, val label: String, val key: String, val share: Double,
                      val query: (Int, Long) => R, val check: (Int, R) => Option[String],
                      val minQueries: Int = 1) {
  val samples = new Samples
  val allocBytes = ArrayBuffer.empty[Double]
  /** Untraced samples of the main solver in a traced run (tracing overhead). */
  val untraced = new Samples
  var attempted = 0
  var failed = 0
}

/** State of one benchmark run: arguments, tracer, the metrics collected so
  * far, and the closed loop that times queries.
  */
final class Run(val workload: String, val seed: Long, val seconds: Int, val trace: Boolean) {
  val tracer = new Tracer(trace)
  val endToEnd = ArrayBuffer.empty[Metric]
  val perLayer = ArrayBuffer.empty[Metric]
  /** Metrics printed by their solver names, and the paper-shape ratios. */
  val named = ArrayBuffer.empty[Metric]
  val facts = ArrayBuffer.empty[(String, Any)]
  val failures = ArrayBuffer.empty[String]
  private val timings = mutable.LinkedHashMap.empty[String, ArrayBuffer[Double]]
  private var querySeq = 0L
  /** Timed queries attempted and failed, set by `reportSolvers`. */
  var attempted = 0
  var failed = 0

  /** Time `f` in seconds under `name`, inside a span of the same name. */
  def timed[T](name: String)(f: => T): T = tracer.span(name) {
    val t0 = System.nanoTime()
    val out = f
    timings.getOrElseUpdate(name, ArrayBuffer.empty) += (System.nanoTime() - t0) / 1e9
    out
  }

  /** Median of the seconds recorded under `name`. */
  def medianSeconds(name: String): Double = Samples.median(timings(name).toSeq)

  /** Run the set-up `reps` times; returns the last result and the median
    * set-up time in seconds. Each earlier result is passed to `release`,
    * untimed, before the next repetition starts.
    */
  def setupReleasing[T](reps: Int, release: T => Unit)(f: => T): (T, Double) = {
    var last: Option[T] = None
    val times = (1 to reps).map { _ =>
      last.foreach(release)
      last = None
      val t0 = System.nanoTime()
      last = Some(tracer.span("setup")(f))
      (System.nanoTime() - t0) / 1e9
    }
    (last.get, Samples.median(times))
  }

  def setup[T](reps: Int)(f: => T): (T, Double) = setupReleasing[T](reps, _ => ())(f)

  /** Untimed queries of one solver on sources outside the timed pool, so
    * the JIT has compiled its kernels before timing starts.
    */
  private def warmUp[R](sv: Solver[R], sources: IndexedSeq[Int], minQueries: Int, maxSeconds: Double): Unit = {
    val deadline = System.nanoTime() + (maxSeconds * 1e9).toLong
    var i = 0
    while (i < minQueries || System.nanoTime() < deadline) {
      val s = sources(i % sources.length)
      tracer.span(s"warmup.${sv.key}", source = s)(sv.query(s, nextQuerySeed()))
      i += 1
    }
  }

  private def nextQuerySeed(): Long = { querySeq += 1; seed * 1000003L + querySeq }

  /** Closed loop with one client. Each solver in turn is warmed up on the
    * `warm` sources (at least `warmQueries` queries, more while
    * `warmSeconds` last); then the timed queries run, and the next one
    * starts when the previous one has returned and been checked. Each
    * solver gets its share of the measured seconds, and a solver below its
    * `minQueries` keeps running past its share.
    *
    * With `interleave`, every solver is warmed up before any is timed, and
    * the timed queries go to the solver furthest behind in its share of
    * time or of `minQueries`: each solver's samples then spread over the
    * whole measured window, so a slow spell of the shared host weighs on
    * all of them alike instead of on whichever solver it falls on; and each
    * timed query is pinned to the next CPU in turn (`Affinity`). Without
    * it, each solver is timed right after its own warm-up, one after the
    * other; that suits solvers whose kernels share compiled code (a
    * solver warmed up later can change the code an earlier one was
    * compiled to). Each solver walks the pool's sources in order.
    * `after` sees each checked result with its time and whether it was
    * traced, outside the timed interval (per-layer probes hook in there).
    *
    * With `checkAfterLoop`, results are kept and checked once every solver
    * has run, after `checkAfterLoop` has been given their sources: a check
    * that runs the program itself (a ground truth) then cannot change the
    * JIT profiles the timed queries run with. A time counts only once its
    * result has passed its check.
    */
  def closedLoop(solvers: Seq[Solver[_]], warm: IndexedSeq[Int], warmQueries: Int, warmSeconds: Double,
                 pool: IndexedSeq[Int], interleave: Boolean, checkAfterLoop: Option[Seq[Int] => Unit] = None)
                (after: (Solver[_], Int, Any, Long, Boolean) => Unit = (_, _, _, _, _) => ()): Unit = {
    val pending = ArrayBuffer.empty[(Int, () => Unit)]
    val gc0 = Jvm.gcMillis()
    // A traced run needs both a traced and an untraced main query.
    val minQueries = solvers.map(sv => math.max(sv.minQueries, if (trace && sv.role == "main") 2 else 1))
    val shareNs = solvers.map(sv => sv.share * seconds * 1e9)
    val spentNs = new Array[Double](solvers.size)
    val done = new Array[Int](solvers.size)
    def progress(k: Int): Double = math.min(spentNs(k) / shareNs(k), done(k).toDouble / minQueries(k))
    def timeOne(k: Int): Unit = {
      val sv = solvers(k)
      val s = pool(done(k) % pool.length)
      val t0 = System.nanoTime()
      query(sv, s, done(k), after).foreach { record =>
        if (checkAfterLoop.isEmpty) record() else pending += ((s, record))
      }
      spentNs(k) += System.nanoTime() - t0
      done(k) += 1
    }
    if (interleave) {
      solvers.foreach(warmUp(_, warm, warmQueries, warmSeconds))
      var behind = solvers.indices.filter(progress(_) < 1.0)
      while (behind.nonEmpty) {
        Affinity.rotate()
        timeOne(behind.minBy(progress))
        behind = behind.filter(progress(_) < 1.0)
      }
    } else solvers.indices.foreach { k =>
      warmUp(solvers(k), warm, warmQueries, warmSeconds)
      while (progress(k) < 1.0) timeOne(k)
    }
    if (trace) perLayer += Metric("jvm.gc_ms", (Jvm.gcMillis() - gc0).toDouble, "ms", 1,
      "collection time of all collectors during the measured loop")
    checkAfterLoop.foreach { prepare =>
      prepare(pending.map(_._1).distinct.toSeq)
      pending.foreach(_._2())
    }
  }

  /** One timed query: the `i`-th of solver `sv`, on source `s`. Returns the
    * step that checks its result and records its time, unless it threw.
    */
  private def query[R](sv: Solver[R], s: Int, i: Int,
                       after: (Solver[_], Int, Any, Long, Boolean) => Unit): Option[() => Unit] = {
    val qid = querySeq + 1
    // In a traced run the main solver alternates traced and untraced
    // queries; the difference of their medians is the tracing overhead.
    val traced = trace && !(sv.role == "main" && i % 2 == 1)
    sv.attempted += 1
    try {
      val a0 = if (traced) Jvm.allocatedBytes() else 0L
      val t0 = System.nanoTime()
      val r =
        if (traced) tracer.span(s"query.${sv.key}", qid, s)(sv.query(s, nextQuerySeed()))
        else sv.query(s, nextQuerySeed())
      val ns = System.nanoTime() - t0
      val a1 = if (traced) Jvm.allocatedBytes() else 0L
      Some { () =>
        val why = if (traced) tracer.span("check", qid)(sv.check(s, r)) else sv.check(s, r)
        why match {
          case None =>
            if (traced) { sv.samples.add(ns); sv.allocBytes += (a1 - a0).toDouble }
            else if (trace) sv.untraced.add(ns)
            else sv.samples.add(ns)
            after(sv, s, r, ns, traced)
          case Some(msg) => fail(sv, s, msg)
        }
      }
    } catch {
      case e: Exception => fail(sv, s, e.toString); None
    }
  }

  private def fail(sv: Solver[_], s: Int, msg: String): Unit = {
    sv.failed += 1
    if (failures.size < 20) failures += s"${sv.label} source $s: $msg"
  }

  /** End-to-end latency metrics of the solvers, under their role slots and,
    * for the report, under their own names. In a traced run they go to the
    * report only, and the per-layer allocation and overhead metrics are added.
    */
  def reportSolvers(solvers: Seq[Solver[_]], unitOf: Solver[_] => String): Unit = {
    solvers.foreach { sv =>
      val unit = unitOf(sv)
      val scale = if (unit == "s") 1e-3 else 1.0
      val n = sv.samples.n
      val p50 = Metric(s"${sv.key}_${unit}_p50", sv.samples.medianMs * scale, unit, n, sv.label)
      named += p50
      if (!trace) endToEnd += Metric(s"${sv.role}_ms_p50", sv.samples.medianMs, "ms", n, sv.label)
      if (sv.role == "main") {
        val (p90, how) = sv.samples.p90Ms
        // Reported, not gated: its run-to-run spread on approx-orkut is
        // above the largest bound a gated metric may have.
        named += Metric(s"${sv.key}_${unit}_p90", p90 * scale, unit, n, s"${sv.label}; $how")
      }
      if (trace) {
        perLayer += Metric(s"jvm.${sv.role}_alloc_bytes_per_query",
          Samples.median(sv.allocBytes.toSeq), "bytes", sv.allocBytes.size,
          s"${sv.label}; median over queries, allocations of the querying thread")
        if (sv.role == "main") {
          perLayer += Metric("trace.main_ms_p50", sv.samples.medianMs, "ms", n, s"${sv.label}, traced queries")
          perLayer += Metric("trace.overhead_ms", sv.samples.medianMs - sv.untraced.medianMs, "ms",
            sv.untraced.n, s"${sv.label}: traced minus untraced median in this run " +
              f"(untraced ${sv.untraced.medianMs}%.3f ms)")
        }
      }
    }
    val main = solvers.find(_.role == "main").get
    solvers.filter(_.role != "main").foreach { sv =>
      val ratio = sv.samples.medianMs / main.samples.medianMs
      val m = Metric(s"ratio.${sv.role}_over_main_p50", ratio, "ratio", math.min(sv.samples.n, main.samples.n),
        f"${sv.label} p50 ${sv.samples.medianMs}%.3f ms / ${main.label} p50 ${main.samples.medianMs}%.3f ms")
      named += m
      if (trace) perLayer += m
    }
    attempted = solvers.map(_.attempted).sum
    failed = solvers.map(_.failed).sum
    named += Metric("fail_frac", failed.toDouble / attempted, "ratio", attempted,
      "queries whose check failed or that threw, out of queries attempted")
  }
}
