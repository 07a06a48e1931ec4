package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.graph.{CSRGraph, ExactPPR, Fig1, GraphGen}

class WalkPhaseSpec extends AnyFunSuite {
  private val alpha = 0.2

  /** Exact stop distribution of α-walks whose start is drawn from r, with
    * dead ends jumping to s: Σ_k α(1−α)^k · r·P_s^k, summed until
    * (1−α)^k is far below any tolerance used here.
    */
  private def walkDistribution(g: CSRGraph, s: Int, r: Array[Double]): Array[Double] = {
    val out = new Array[Double](g.n)
    var y = r.clone()
    (0 until 400).foreach { _ =>
      val next = new Array[Double](g.n)
      (0 until g.n).foreach { v =>
        out(v) += alpha * y(v)
        val d = g.outDegree(v)
        if (d == 0) next(s) += (1 - alpha) * y(v)
        else g.foreachOut(v)(u => next(u) += (1 - alpha) * y(v) / d)
      }
      y = next
    }
    out
  }

  /** One walk phase over (a copy of) residue r with W = w. */
  private def phase(g: CSRGraph, s: Int, r: Array[Double], w: Long,
                    index: Option[WalkIndex] = None, seed: Long = 1L): (Array[Double], Stats) = {
    val pi = new Array[Double](g.n)
    val stats = new Stats
    WalkPhase.run(g, s, pi, r.clone(), w, index, alpha, seed, stats)
    (pi, stats)
  }

  private def unit(n: Int, v: Int): Array[Double] = { val r = new Array[Double](n); r(v) = 1.0; r }

  private def assertClose(got: Array[Double], want: Array[Double], tol: Double, what: String): Unit =
    got.indices.foreach { v =>
      assert(math.abs(got(v) - want(v)) < tol, s"$what, node $v: ${got(v)} vs ${want(v)}")
    }

  // Node 0 is a dead end; node 3 is another dead end.
  private val deadEndSource =
    CSRGraph.fromEdges(6, Seq(1 -> 0, 1 -> 3, 1 -> 4, 2 -> 1, 2 -> 5, 4 -> 2, 4 -> 0, 5 -> 1, 5 -> 4))
  private val spread = Array(0.1, 0.3, 0.2, 0.1, 0.2, 0.1)

  test("endpoint distribution from the source matches exact PPR on Fig1") {
    val g = Fig1.graph
    (0 until g.n).foreach { s =>
      val exact = ExactPPR.solve(g, s, alpha)
      assertClose(walkDistribution(g, s, unit(g.n, s)), exact, 1e-12, "reference")
      val (pi, stats) = phase(g, s, unit(g.n, s), 100000, seed = s)
      assertClose(pi, exact, 0.01, s"source $s")
      assert(stats.walks == 100000)
    }
  }

  test("endpoint distribution matches exact when the source is a dead end") {
    val g = deadEndSource
    val s = 0
    assert(g.outDegree(s) == 0)
    val (fromS, _) = phase(g, s, unit(g.n, s), 20000, seed = 2)
    assertClose(fromS, ExactPPR.solve(g, s, alpha), 1e-12, "walks from the source")
    val (pi, _) = phase(g, s, spread, 200000, seed = 3)
    assertClose(pi, walkDistribution(g, s, spread), 0.01, "walks from the residue")
  }

  test("SpeedPPR-Index path: stored endpoints and dead-end markers match live walks") {
    val g = deadEndSource
    val s = 0
    val idx = WalkIndex.build(g, _ => 60000, alpha, seed = 4)
    assert(idx.endpoints.exists(_ < 0), "index holds dead-end markers")
    val w = 200000L // at most 60000 walks per node: every walk is stored
    val (indexed, is) = phase(g, s, spread, w, Some(idx), seed = 5)
    val (live, ls) = phase(g, s, spread, w, seed = 6)
    val exact = walkDistribution(g, s, spread)
    assertClose(indexed, exact, 0.01, "indexed")
    assertClose(indexed, live, 0.015, "indexed vs live")
    assert(is.walks == ls.walks)
    assert(is.walkSteps > 0 && is.walkSteps < ls.walkSteps, "only marker walks move live")
  }

  test("FORA+ path: stored walks plus live top-ups match live walks") {
    val g = GraphGen.randomGraph(40, 3.0, seed = 7)
    val s = 0
    val r = Array.tabulate(g.n)(v => if (v % 3 == 0) 1.0 / ((g.n + 2) / 3) else 0.0)
    val idx = WalkIndex.build(g, _ => 500, alpha, seed = 8)
    val w = 200000L // ~15000 walks per node: 500 stored, the rest topped up live
    val (indexed, is) = phase(g, s, r, w, Some(idx), seed = 9)
    val (live, ls) = phase(g, s, r, w, seed = 10)
    assertClose(indexed, walkDistribution(g, s, r), 0.01, "indexed")
    assertClose(indexed, live, 0.015, "indexed vs live")
    assert(is.walks == ls.walks)
  }

  test("every walk credits its weight exactly once: sum of pi is 1 +- 1e-12") {
    val g = GraphGen.randomGraph(60, 3.0, seed = 12)
    assert(g.deadEnds.nonEmpty)
    val speedIdx = WalkIndex.buildSpeedPPR(g, alpha, seed = 1)
    val foraIdx = WalkIndex.buildFora(g, 0.3, alpha, seed = 2)
    Seq(
      "SpeedPPR" -> SpeedPPR.run(g, 0, 0.3, alpha, seed = 3),
      "SpeedPPR-Index" -> SpeedPPR.runIndexed(g, 0, 0.3, speedIdx, alpha, seed = 4),
      "FORA" -> Fora.run(g, 0, 0.3, alpha, seed = 5),
      "FORA+" -> Fora.runIndexed(g, 0, 0.3, foraIdx, alpha, seed = 6),
      "ResAcc" -> ResAcc.run(g, 0, 0.3, alpha, seed = 7),
      "MonteCarlo" -> MonteCarlo.run(g, 0, 0.3, alpha, seed = 8),
    ).foreach { case (name, res) =>
      assert(math.abs(res.l1Pi - 1.0) <= 1e-12, s"$name: sum pi = ${res.l1Pi}")
      assert(res.residue.forall(_ == 0.0), s"$name: residue left")
      assert(res.stats.walks > 0, s"$name: no walks")
    }
  }

  test("same seed gives the same pi, live and indexed") {
    val g = GraphGen.randomGraph(50, 3.0, seed = 13)
    val idx = WalkIndex.build(g, _ => 20, alpha, seed = 14)
    val r = Array.fill(g.n)(1.0 / g.n)
    Seq(None, Some(idx)).foreach { index =>
      val (a, sa) = phase(g, 0, r, 5000, index, seed = 15)
      val (b, sb) = phase(g, 0, r, 5000, index, seed = 15)
      val (c, _) = phase(g, 0, r, 5000, index, seed = 16)
      assert(a.toSeq == b.toSeq && sa.walkSteps == sb.walkSteps)
      assert(a.toSeq != c.toSeq)
    }
  }

  test("SpeedPPR walks equal the sum of ceil(r_v * W) over its refined push residue") {
    val g = GraphGen.scaleFree(500, 6.0, seed = 93)
    val eps = 0.3
    val w = math.ceil(Common.walkCountW(g.n, eps, 1.0 / g.n)).toLong
    val push = PowerPush.run(g, 0, g.m.toDouble / w, alpha, refineRMax = 1.0 / w)
    val expected = push.residue.filter(_ > 0.0).map(rv => math.ceil(rv * w).toLong).sum
    val res = SpeedPPR.run(g, 0, eps, alpha, seed = 1)
    assert(res.stats.walks == expected)
    // pushOps still includes the walks (documented on Stats).
    assert(res.stats.pushOps == push.stats.pushOps + expected)
  }

  test("without dead ends SpeedPPR needs at most m walks") {
    val g = GraphGen.scaleFreeUndirected(400, 4.0, seed = 5)
    assert(g.deadEnds.isEmpty)
    Seq(0.1, 0.3, 0.5).foreach { eps =>
      val walks = SpeedPPR.run(g, 0, eps, alpha, seed = 2).stats.walks
      assert(walks > 0 && walks <= g.m, s"eps $eps: $walks walks, m = ${g.m}")
    }
  }

  test("walk steps per walk is about (1 - alpha) / alpha") {
    val g = GraphGen.scaleFreeUndirected(2000, 5.0, seed = 6)
    val sp = SpeedPPR.run(g, 0, 0.1, alpha, seed = 3).stats
    val mc = MonteCarlo.run(g, 0, 0.5, alpha, seed = 4).stats
    Seq("SpeedPPR" -> sp, "MonteCarlo" -> mc).foreach { case (name, st) =>
      assert(st.walks > 5000, s"$name: ${st.walks} walks")
      val perWalk = st.walkSteps.toDouble / st.walks
      assert(math.abs(perWalk - (1 - alpha) / alpha) < 0.25, s"$name: $perWalk steps per walk")
    }
    assert(mc.edgePushes == mc.walkSteps && mc.pushOps == mc.walks)
  }
}

class ApproxInputsSpec extends AnyFunSuite {
  private val alpha = 0.2
  private val g = GraphGen.randomGraph(60, 3.0, seed = 21)
  private val speedIdx = WalkIndex.buildSpeedPPR(g, alpha, seed = 1)
  private val foraIdx = WalkIndex.buildFora(g, 0.3, alpha, seed = 2)

  /** Every approximate entry point, as (name, (s, eps, alpha) => run). */
  private val entries: Seq[(String, (Int, Double, Double) => PPRResult)] = Seq(
    "SpeedPPR.run" -> ((s, e, a) => SpeedPPR.run(g, s, e, a)),
    "SpeedPPR.runIndexed" -> ((s, e, a) => SpeedPPR.runIndexed(g, s, e, speedIdx, a)),
    "Fora.run" -> ((s, e, a) => Fora.run(g, s, e, a)),
    "Fora.runIndexed" -> ((s, e, a) => Fora.runIndexed(g, s, e, foraIdx, a)),
    "ResAcc.run" -> ((s, e, a) => ResAcc.run(g, s, e, a)),
    "MonteCarlo.run" -> ((s, e, a) => MonteCarlo.run(g, s, e, a)),
  )

  private def rejects(what: String, param: String)(f: => Any): Unit = {
    val e = intercept[IllegalArgumentException](f)
    assert(e.getMessage.contains(param), s"$what: message '${e.getMessage}' does not name $param")
  }

  test("eps = 0 and eps = 2 are rejected") {
    for ((name, run) <- entries; eps <- Seq(0.0, 2.0)) rejects(s"$name eps=$eps", "eps")(run(0, eps, alpha))
    Seq(0.0, 2.0).foreach(eps => rejects(s"buildFora eps=$eps", "eps")(WalkIndex.buildFora(g, eps, alpha)))
  }

  test("alpha outside (0, 1) is rejected") {
    for ((name, run) <- entries; a <- Seq(0.0, 1.0)) rejects(s"$name alpha=$a", "alpha")(run(0, 0.3, a))
    rejects("buildFora alpha=0", "alpha")(WalkIndex.buildFora(g, 0.3, 0.0))
  }

  test("sources s = -1 and s = n are rejected") {
    for ((name, run) <- entries; s <- Seq(-1, g.n)) rejects(s"$name s=$s", "source")(run(s, 0.3, alpha))
  }

  test("an index built for another graph is rejected") {
    val other = GraphGen.randomGraph(80, 3.0, seed = 22)
    rejects("SpeedPPR.runIndexed", "index")(SpeedPPR.runIndexed(other, 0, 0.3, speedIdx, alpha))
    rejects("Fora.runIndexed", "index")(Fora.runIndexed(other, 0, 0.3, foraIdx, alpha))
  }

  test("valid inputs still run") {
    entries.foreach { case (name, run) => assert(math.abs(run(0, 0.3, alpha).l1Pi - 1.0) < 1e-9, name) }
  }
}
