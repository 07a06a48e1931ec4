package perfbench

import java.lang.management.ManagementFactory
import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._

/** Latency samples of one solver, in nanoseconds. */
final class Samples {
  private val ns = ArrayBuffer.empty[Long]
  def add(t: Long): Unit = ns += t
  def n: Int = ns.size

  /** Median as Python's `statistics.median` defines it, in ms. */
  def medianMs: Double = Samples.median(ns.map(_ / 1e6).toSeq)

  /** Nearest-rank p90 in ms, reported only when at least ten samples lie
    * beyond it (n ≥ 100); otherwise the median, flagged as such.
    */
  def p90Ms: (Double, String) = {
    val sorted = ns.toArray.sorted
    val rank = math.ceil(0.9 * sorted.length).toInt
    if (sorted.length - rank >= 10) (sorted(rank - 1) / 1e6, "p90")
    else (medianMs, "median (fewer than 10 samples beyond p90)")
  }
}

object Samples {
  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of no samples")
    val s = xs.sorted
    val k = s.length / 2
    if (s.length % 2 == 1) s(k) else (s(k - 1) + s(k)) / 2.0
  }
}

/** One reported number with its unit, sample count and how it was obtained. */
final case class Metric(name: String, value: Double, unit: String, n: Int, note: String = "")

/** Spans recorded by the benchmark around its calls into each layer. They
  * live in memory and are written out once, when the run ends.
  */
final class Tracer(val enabled: Boolean) {
  import Tracer.Span
  val spans = ArrayBuffer.empty[Span]
  private var open = List.empty[Int]

  /** Run `f` inside a span named `name`; `query` groups the spans of one
    * query and `source` is its source node.
    */
  def span[T](name: String, query: Long = -1L, source: Int = -1)(f: => T): T =
    if (!enabled) f
    else {
      val id = spans.size
      val parent = open.headOption.getOrElse(-1)
      spans += Span(id, parent, query, source, name, System.nanoTime(), 0L)
      open = id :: open
      try f
      finally {
        open = open.tail
        spans(id) = spans(id).copy(endNs = System.nanoTime())
      }
    }

  /** Per span name: (count, total ms, self ms), where self time excludes
    * the time covered by child spans.
    */
  def summary: Seq[(String, Int, Double, Double)] = {
    val childNs = new Array[Long](spans.size)
    spans.foreach(sp => if (sp.parent >= 0) childNs(sp.parent) += sp.endNs - sp.startNs)
    spans.groupBy(_.name).toSeq.sortBy(_._1).map { case (name, ss) =>
      val total = ss.map(sp => sp.endNs - sp.startNs).sum
      val self = ss.map(sp => sp.endNs - sp.startNs - childNs(sp.id)).sum
      (name, ss.size, total / 1e6, self / 1e6)
    }
  }

  def writeJsonLines(path: java.nio.file.Path): Unit = {
    java.nio.file.Files.createDirectories(path.getParent)
    val lines = spans.map(sp => Json.obj(
      "id" -> sp.id, "parent" -> sp.parent, "query" -> sp.query, "source" -> sp.source, "name" -> sp.name,
      "start_ns" -> sp.startNs, "end_ns" -> sp.endNs))
    java.nio.file.Files.write(path, lines.asJava)
  }
}

object Tracer {
  final case class Span(id: Int, parent: Int, query: Long, source: Int, name: String, startNs: Long, endNs: Long)
}

/** Moves the calling thread from CPU to CPU. A thread left alone stays
  * on one CPU, and on a shared host that CPU's neighbours then set the
  * speed of every query of the run; pinning each timed query to the next
  * CPU in turn spreads a run's queries over all of them. Does nothing where
  * `taskset` or `/proc/thread-self` is missing.
  */
object Affinity {
  private val cpus = Runtime.getRuntime.availableProcessors
  private var next = 0

  private def tid: Option[String] = scala.util.Try {
    val link = java.nio.file.Files.readSymbolicLink(java.nio.file.Paths.get("/proc/thread-self")).toString
    link.substring(link.lastIndexOf('/') + 1)
  }.toOption

  /** Pin the calling thread to the next CPU; false if that failed. */
  def rotate(): Boolean = tid.exists { t =>
    next = (next + 1) % cpus
    scala.util.Try {
      new ProcessBuilder("taskset", "-p", "-c", next.toString, t)
        .redirectErrorStream(true).redirectOutput(ProcessBuilder.Redirect.DISCARD)
        .start().waitFor() == 0
    }.getOrElse(false)
  }
}

/** JVM counters read through JMX. */
object Jvm {
  private val threads =
    ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]

  /** Bytes allocated so far by the calling thread. */
  def allocatedBytes(): Long = threads.getThreadAllocatedBytes(Thread.currentThread().getId)

  /** Total collection time of all collectors so far, in ms. */
  def gcMillis(): Long =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(b => math.max(0L, b.getCollectionTime)).sum

  /** Live heap in MB after full collections. */
  def liveHeapMb(): Double = {
    var i = 0
    while (i < 3) { System.gc(); i += 1 }
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / 1048576.0
  }
}

/** Facts about the host and runtime that every result is reported with. */
object Host {
  private def read(path: String): Option[String] =
    scala.util.Try {
      val src = scala.io.Source.fromFile(path)
      try src.mkString.trim finally src.close()
    }.toOption

  private def cacheSize(level: Int): String =
    (0 until 8).flatMap { i =>
      val dir = s"/sys/devices/system/cpu/cpu0/cache/index$i"
      for {
        l <- read(s"$dir/level") if l == level.toString
        t <- read(s"$dir/type") if t != "Instruction"
        size <- read(s"$dir/size")
      } yield size
    }.headOption.getOrElse("unknown")

  def facts: Seq[(String, Any)] = Seq(
    "nproc" -> Runtime.getRuntime.availableProcessors,
    "cpu_model" -> read("/proc/cpuinfo").flatMap(_.linesIterator.find(_.startsWith("model name")))
      .map(_.split(":", 2)(1).trim).getOrElse("unknown"),
    "l2_per_core" -> cacheSize(2),
    "l3" -> cacheSize(3),
    "max_heap_mb" -> Runtime.getRuntime.maxMemory / 1048576,
    "jdk" -> s"${System.getProperty("java.vm.name")} ${System.getProperty("java.version")}",
    "gc" -> ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getName).mkString("+"),
    "spark_version" -> org.apache.spark.SPARK_VERSION,
  )
}

/** Minimal JSON rendering for the report and result lines. */
object Json {
  def obj(fields: (String, Any)*): String =
    fields.map { case (k, v) => s"${str(k)}: ${render(v)}" }.mkString("{", ", ", "}")

  def render(v: Any): String = v match {
    case s: String => str(s)
    case b: Boolean => b.toString
    case d: Double =>
      require(!d.isNaN && !d.isInfinite, s"non-finite number $d")
      d.toString
    case i: Int => i.toString
    case l: Long => l.toString
    case m: Map[_, _] => obj(m.toSeq.map { case (k, x) => (k.toString, x) }: _*)
    case s: Seq[_] => s.map(render).mkString("[", ", ", "]")
    case raw: Json.Raw => raw.text
    case other => str(other.toString)
  }

  /** Already-rendered JSON, embedded as is. */
  final case class Raw(text: String)

  private def str(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"' => b ++= "\\\""
      case '\\' => b ++= "\\\\"
      case c if c < ' ' => b ++= f"\\u${c.toInt}%04x"
      case c => b += c
    }
    (b += '"').toString
  }
}
