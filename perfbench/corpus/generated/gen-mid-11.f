program fuzz
  input integer :: n = 7
  integer :: i0, i1, i2, i3, i4, i5, i6, i7, i8, i9, i10
  integer :: a0(-1:9, 0:n+2)
  integer :: a1(-2:5, n)
  integer :: a2(10)
  integer :: a3(10, 0:n+1, 2:6)
  integer :: c0(n)
  integer :: c1(n)
  c0(7) = 3
  do i0 = 2, n, 2
    do i1 = i0, 1, -1
      do i2 = n, 1, -2
        call sub1(n, i1, c1)
        call sub1(n, i1, c1)
      end do
      call sub0(n, -3, c0)
      call sub0(n, -3, c0)
    end do
  end do
  if (n >= 7) then
    print 49
    do i3 = 0, n
      do i4 = 1, i3, 2
        print i3
        call sub1(n, i4, c1)
        call sub0(n, 0, c0)
        call sub0(n, 0, c0)
        a1(1, -1*i4+8) = a1(i3-2, 2) + 3
        if (i3 == 4) then
          exit
        end if
      end do
    end do
  else
    do i5 = n, 0, -2
      print i5
      if (i5 > 2) then
        call sub1(n, i5, c1)
        call sub1(n, i5, c1)
        c1(1) = a1(i5-2, 4) + 2
      else
        a2(i5+1) = c1(0) + 3
      end if
      if (i5 >= 8) then
        call sub0(n, 3, c0)
      else
        a3(i5+3, i5+1, 6) = max(i5, 3)
        call sub1(n, 0, c1)
        a2(i5+1) = a1(i5-2, 1) + 3
        c1(5) = i5 * 3
        c0(2) = i5 + 1
        c0(5) = a0(i5, 0) + 1
      end if
      do i6 = 2, n
        a1(-1, 1) = c1(i6) + 2
        a2(i5+3) = i6 * 2
        print i5
        call sub1(n, -1, c1)
      end do
      print i5
      print i5
    end do
    do i7 = 6, 2, -3
      c0(-1*i7+7) = c0(5) + 3
      do i8 = -1, -3, -3
        print i8
      end do
      if (i7 > 5) then
        call sub1(n, 1, c1)
        call sub1(n, 1, c1)
        call sub0(n, i7, c0)
        c0(-1*i7+9) = i7 + 3
        c0(i7) = c0(-1*i7+7) + 2
      end if
    end do
    call sub0(n, -1, c0)
    i9 = 2
    while (i9 < 2) do
      a2(2) = c1(i9) + 2
      if (i9 < 6) then
        c0(i9) = i9 * 3
      else
        a1(i9-1, i9-1) = a0(i9+5, i9-2) + 3
      end if
      if (i9 == 8) then
        call sub0(n, 9, c0)
        call sub0(n, 9, c0)
        print i9
        a3(i9+4, 2*i9-4, 4) = 13
      else
        c1(-1*i9+3) = i9 * 2
      end if
      i10 = 0
      while (i10 < 5) do
        call sub1(n, 5, c1)
        a0(0, i9) = 10
        c1(i10+2) = a3(-1*i10+7, -1*i10+6, i9+1) + 3
        a2(2*i9+4) = a2(7) + 1
        i10 = i10 + 1
      end while
      i9 = i9 + 1
    end while
    print 15
    call sub1(n, 4, c1)
    call sub1(n, 4, c1)
  end if
  a1(5, 4) = 3
  print 81
end program
subroutine sub0(m, j, x)
  integer :: m, j, k
  integer :: x(m)
  do k = 1, m
    x(k) = k + j
    x(k) = x(k) + m
  end do
end subroutine
subroutine sub1(m, j, x)
  integer :: m, j, k
  integer :: x(m)
  do k = 1, m
    x(k) = k + j
    x(k) = x(k) + m
  end do
end subroutine
