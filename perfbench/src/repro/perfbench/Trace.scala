package repro.perfbench

import java.io.{File, PrintWriter}
import java.util.concurrent.atomic.AtomicLong
import org.apache.spark.{ListenerBusAccess, SparkContext}
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}
import scala.collection.mutable.ArrayBuffer

/** Counts every Spark job and finished task of the application. */
final class JobCounter extends SparkListener {
  val jobs = new AtomicLong
  val tasks = new AtomicLong
  override def onJobStart(e: SparkListenerJobStart): Unit = jobs.incrementAndGet()
  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = tasks.incrementAndGet()
}

/** One closed span. Times are nanoseconds from the tracer's origin; `jobs`,
  * `tasks` and `persisted` are inclusive deltas over the span (persisted =
  * change in the number of RDDs Spark holds persisted); `counts` are the
  * work counts the benchmark recorded at this boundary.
  */
final case class Span(id: Int, parent: Int, name: String, request: Int,
                      start: Long, end: Long, jobs: Long, tasks: Long, persisted: Int,
                      counts: Map[String, Double]) {
  def durMs: Double = (end - start) / 1e6
}

/** Spans recorded from the benchmark's own code around calls into the
  * program. Spans nest by call structure; all stay in memory until `write`.
  * A disabled tracer runs the body and records nothing, so the timed runs pay
  * no tracing cost.
  */
final class Tracer(val enabled: Boolean) {
  private val spans = ArrayBuffer[Span]()
  private val open = ArrayBuffer[Int]()
  private var nextId = 0
  private var sc: SparkContext = _
  private var counter: JobCounter = _
  private val origin = System.nanoTime()
  var request: Int = -1

  /** Starts counting jobs and tasks on `spark` (a no-op when disabled). */
  def attach(context: SparkContext): Unit = if (enabled) {
    sc = context
    counter = new JobCounter
    sc.addSparkListener(counter)
  }

  def detach(): Unit = if (sc != null) {
    ListenerBusAccess.drain(sc)
    sc.removeSparkListener(counter)
    sc = null
  }

  /** Time spent reading Spark's counters at span boundaries, the tracer's own cost. */
  var bookkeepingMs = 0.0

  private def sparkState: (Long, Long, Int) =
    if (sc == null) (0L, 0L, 0)
    else {
      val t0 = System.nanoTime()
      ListenerBusAccess.drain(sc)
      val state = (counter.jobs.get, counter.tasks.get, sc.getPersistentRDDs.size)
      bookkeepingMs += (System.nanoTime() - t0) / 1e6
      state
    }

  /** Runs `body` inside a span. `count` derives work counts from the result
    * before the span closes, so forcing a lazy result there is timed with it.
    */
  def span[A](name: String)(body: => A): A = counted[A](name, _ => Map.empty)(body)

  def counted[A](name: String, count: A => Map[String, Double])(body: => A): A = {
    if (!enabled) return body
    val id = nextId
    nextId += 1
    val parent = open.lastOption.getOrElse(-1)
    open += id
    val (j0, t0, p0) = sparkState
    val start = System.nanoTime() - origin
    val (out, counts) = try { val o = body; (o, count(o)) } finally open.remove(open.length - 1)
    val end = System.nanoTime() - origin
    val (j1, t1, p1) = sparkState
    spans += Span(id, parent, name, request, start, end, j1 - j0, t1 - t0, p1 - p0, counts)
    out
  }

  def all: Seq[Span] = spans.toSeq

  /** Writes the spans as JSON lines, one object per span. */
  def write(file: File): Unit = {
    file.getParentFile.mkdirs()
    val w = new PrintWriter(file, "UTF-8")
    try spans.sortBy(_.start).foreach { s =>
      val counts = s.counts.map { case (k, v) => s"${Json.str(k)}:${Json.num(v)}" }.mkString(",")
      w.println(s"""{"id":${s.id},"parent":${s.parent},"name":${Json.str(s.name)},""" +
        s""""request":${s.request},"start_ns":${s.start},"end_ns":${s.end},""" +
        s""""jobs":${s.jobs},"tasks":${s.tasks},"persisted":${s.persisted},"counts":{$counts}}""")
    } finally w.close()
  }
}

object Tracer {

  /** Self time of each span in ms: its duration minus the part of its
    * interval covered by its direct children.
    */
  def selfMs(spans: Seq[Span]): Map[Int, Double] = {
    val children = spans.groupBy(_.parent)
    spans.map { s =>
      val kids = children.getOrElse(s.id, Nil).map(c => (c.start, c.end)).sortBy(_._1)
      var covered = 0L
      var curS = Long.MinValue
      var curE = Long.MinValue
      kids.foreach { case (a, b) =>
        if (a > curE) { if (curE > curS) covered += curE - curS; curS = a; curE = b }
        else curE = math.max(curE, b)
      }
      if (curE > curS) covered += curE - curS
      s.id -> (s.end - s.start - covered) / 1e6
    }.toMap
  }

  /** Spark work a span did itself: inclusive jobs/tasks minus its children's. */
  def selfSpark(spans: Seq[Span]): Map[Int, (Long, Long)] = {
    val children = spans.groupBy(_.parent)
    spans.map { s =>
      val kids = children.getOrElse(s.id, Nil)
      s.id -> (s.jobs - kids.map(_.jobs).sum, s.tasks - kids.map(_.tasks).sum)
    }.toMap
  }
}

/** Minimal JSON value formatting for the result line and the span file. */
object Json {
  def str(s: String): String =
    "\"" + s.flatMap {
      case '"'  => "\\\""
      case '\\' => "\\\\"
      case c if c < ' ' => f"\\u${c.toInt}%04x"
      case c    => c.toString
    } + "\""

  /** Full-precision number; JSON has no NaN/Infinity, so those are refused. */
  def num(x: Double): String = {
    require(!x.isNaN && !x.isInfinite, s"metric is not a finite number: $x")
    if (x == math.rint(x) && math.abs(x) < 1e15) x.toLong.toString else x.toString
  }
}
